/**
 * @file
 * PIPECKPT: the versioned binary live-points store behind
 * checkpointed sampled replay (docs/trace_replay.md has the full
 * specification).
 *
 * A checkpoint file caches the warm machine state of every sampling
 * window of one (trace, program, machine configuration, sampling
 * parameters) tuple: for each planned window, the complete serialized
 * state of the replayed machine at the end of the window's warm-up
 * (Simulator::saveState) plus the shared DataMemory's dirty
 * pages.  A later sampled replay of the same tuple restores each
 * window from its snapshot and runs only the measured instructions —
 * the TurboSMARTSim "live-points" idea — making the windows
 * independent jobs that parallelize with bit-identical results.
 *
 * File layout (all integers little-endian, digests 32 raw bytes):
 *
 *     header   magic "PIPECKPT", u32 version, u32 reserved,
 *              trace SHA-256, program SHA-256, config SHA-256,
 *              u32 samplePeriod, u32 sampleWarmup, u32 sampleMeasure,
 *              u64 trace record count, u32 window count,
 *              u32 provenance length, provenance bytes (UTF-8),
 *              u32 CRC-32 of everything above
 *     windows  per window: u64 window index, u64 start record,
 *              u64 warm-end record, u32 payload bytes,
 *              u32 CRC-32 of the payload, payload (state_io stream)
 *     trailer  SHA-256 of everything above
 *
 * The three digests form the cache key: a checkpoint is only valid
 * for the exact trace, program image and machine configuration that
 * produced it, and the loader re-checks all three (plus the sampling
 * parameters) before any payload is trusted.  As with PIPETRC,
 * readers never trust the input: truncation, bad magic/version, CRC
 * or digest mismatches and trailing garbage all raise FatalError with
 * a diagnostic naming the offset.
 */

#ifndef PIPESIM_REPLAY_CHECKPOINT_HH
#define PIPESIM_REPLAY_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace pipesim::replay
{

/**
 * Current (and only) checkpoint format version.  Version 2: the
 * payload is Simulator::saveState, which adds the retired-PC ring
 * and the CPI stack's components to version 1's replay-machine state.
 * Version 3 adds the queue-occupancy histograms, open runs included.
 * Version 4 stores the retired-PC ring oldest first instead of in
 * storage order.  Version 5 drops the fetch units' parity-retry
 * fields, the memory requests' extra latency, the input-bus
 * transfer's corruption flag and the TIB fetch's retarget flag.
 */
inline constexpr std::uint32_t checkpointFormatVersion = 5;

/** Checkpoint identity: the cache key plus provenance. */
struct CheckpointMeta
{
    std::string traceSha256;   //!< hex digest of the encoded trace
    std::string programSha256; //!< hex digest of the program image
    std::string configSha256;  //!< hex digest of the machine config
    std::uint32_t samplePeriod = 0;
    std::uint32_t sampleWarmup = 0;
    std::uint32_t sampleMeasure = 0;
    std::uint64_t traceRecords = 0;
    std::string provenance; //!< free-form creation description
};

/** One window's warm snapshot. */
struct CheckpointWindow
{
    std::uint64_t index = 0;   //!< position in the window plan
    std::uint64_t start = 0;   //!< sync-point record the window began at
    std::uint64_t warmEnd = 0; //!< record the snapshot was taken at
    std::vector<std::uint8_t> payload; //!< state_io byte stream
};

/** A fully decoded checkpoint file. */
struct CheckpointSet
{
    CheckpointMeta meta;
    std::vector<CheckpointWindow> windows;

    /** SHA-256 (hex) of the encoded byte stream; filled by
     *  encode/decode/write/read so telemetry can name the file. */
    std::string sha256;
};

/**
 * Canonical fingerprint of the timing-relevant machine configuration:
 * SHA-256 over a fixed-order serialization of every FetchConfig,
 * MemSystemConfig and PipelineConfig field.  Two configs with equal
 * hashes replay any trace cycle-identically.
 */
std::string configSha256(const SimConfig &config);

/**
 * Canonical file path for @p config's checkpoints under @p dir:
 * `<dir>/ckpt-<first 16 hex chars of configSha256>.pipeckpt`.
 * One file per machine configuration keeps sweep points independent.
 */
std::string checkpointPath(const std::string &dir,
                           const SimConfig &config);

/** Encode @p set; also refreshes set.sha256. */
std::vector<std::uint8_t> encodeCheckpoint(CheckpointSet &set);

/**
 * Decode a checkpoint from @p bytes.  @p name labels diagnostics.
 * @throws FatalError on any corruption or truncation.
 */
CheckpointSet decodeCheckpoint(const std::vector<std::uint8_t> &bytes,
                               const std::string &name);

/**
 * Encode and atomically write @p set to @p path (temp file +
 * rename, so a crashed creator never leaves a half-written file
 * where a reader will find it).  Refreshes set.sha256.
 */
void writeCheckpoint(CheckpointSet &set, const std::string &path);

/**
 * Read and decode the checkpoint at @p path.
 * @throws FatalError when the file is unreadable or corrupt.
 */
CheckpointSet readCheckpoint(const std::string &path);

/** Human-readable summary (the `pipesim-trace checkpoint` inspect
 *  output): window count, sizes, hashes, provenance. */
std::string describeCheckpoint(const CheckpointSet &set);

} // namespace pipesim::replay

#endif // PIPESIM_REPLAY_CHECKPOINT_HH

/**
 * @file
 * Trace capture: the functional executor's record stream
 * (cpu/executor.hh), kept as a replay::Trace.
 *
 * The executor emits exactly the committed instruction stream: PIPE
 * has no speculation that changes committed results, so the stream is
 * a property of the program alone, and one capture drives replays
 * under every machine configuration.  No timing model runs.
 */

#ifndef PIPESIM_REPLAY_CAPTURE_HH
#define PIPESIM_REPLAY_CAPTURE_HH

#include <string>

#include "replay/trace_format.hh"

namespace pipesim
{
class Program;
struct SimConfig;
} // namespace pipesim

namespace pipesim::replay
{

/**
 * Execute @p program to HALT and return its trace (meta filled in,
 * sha256 computed), with @p provenance stored in the header.
 * @p config does not shape the stream: it only bounds it at
 * config.maxCycles + 1 records, past which a timed run could not
 * halt in time.  A program the executor cannot take to HALT runs on
 * the cycle engine instead, which raises what it raises for it.
 * @throws SimAbort / FatalError exactly as that run would.
 */
Trace captureTrace(const SimConfig &config, const Program &program,
                   const std::string &provenance);

} // namespace pipesim::replay

#endif // PIPESIM_REPLAY_CAPTURE_HH

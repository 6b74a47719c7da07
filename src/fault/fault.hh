/**
 * @file
 * Deterministic fault injection for the memory system and bus
 * arbiter.
 *
 * The injector is a seeded pseudo-random decision source the memory
 * system consults at three points:
 *
 *  - responseJitter(): extra cycles added to an external-memory
 *    response (latency jitter);
 *  - delayGrant():     refuse an output-bus grant for one cycle
 *    (delayed grants; at rate 1.0 nothing is ever granted, which
 *    forces a clean deadlock for the forensics tests);
 *  - corruptFill():    corrupt an instruction-fill transfer (a fill
 *    parity error).  The corrupted beats never reach the cache or
 *    the decoder; the fetch unit is told via
 *    MemClient::parityError and retries the fill up to
 *    FetchConfig::parityRetryLimit times before raising SimAbort.
 *
 * Decisions are a pure function of (seed, call sequence), and the
 * call sequence is a pure function of the simulated machine, so a
 * faulty run is exactly reproducible.  Sweeps derive one seed per
 * point from (base seed, strategy, cache size) -- see
 * derivePointSeed() -- so results are independent of worker count
 * and sweep composition.
 *
 * Besides proving the recovery paths under test, the injector opens
 * a degraded-memory resilience study: how do the IQ/IQB strategies
 * and the conventional cache compare when memory timing is noisy?
 */

#ifndef PIPESIM_FAULT_FAULT_HH
#define PIPESIM_FAULT_FAULT_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"

namespace pipesim::fault
{

/** Individually selectable fault kinds (combine as a bitmask). */
enum FaultKind : unsigned
{
    None = 0,
    Latency = 1u << 0, //!< response-latency jitter on external memory
    Grant = 1u << 1,   //!< delayed output-bus grants
    Parity = 1u << 2,  //!< corrupted instruction-fill transfers
    All = Latency | Grant | Parity,
};

/**
 * Parse a --fi-kind value: "none", "all", or a comma-separated list
 * of "latency", "grant", "parity".
 * @throws FatalError for an unknown kind name.
 */
unsigned faultKindsFromString(const std::string &s);

/** Render a kind mask back to its canonical comma list. */
std::string faultKindsToString(unsigned kinds);

/** Fault-injection configuration (--fi-seed / --fi-rate / --fi-kind). */
struct FaultConfig
{
    unsigned kinds = None;  //!< FaultKind bitmask
    std::uint64_t seed = 1; //!< deterministic stream seed
    double rate = 0.01;     //!< per-opportunity injection probability

    /** Upper bound on the extra cycles one response may gain. */
    unsigned maxLatencyJitter = 8;

    /** @return true if any fault can actually fire. */
    bool enabled() const { return kinds != None && rate > 0.0; }
};

class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    /** Extra response cycles for a request entering external memory. */
    unsigned responseJitter();

    /** @return true to refuse this cycle's output-bus grant. */
    bool delayGrant();

    /** @return true to corrupt this instruction-fill transfer. */
    bool corruptFill();

    const FaultConfig &config() const { return _cfg; }

    void regStats(StatGroup &stats, const std::string &prefix);

    std::uint64_t latencyFaults() const { return _latencyFaults.value(); }
    std::uint64_t grantDelays() const { return _grantDelays.value(); }
    std::uint64_t parityFaults() const { return _parityFaults.value(); }

    /**
     * Derive the injection seed for one sweep point from the sweep's
     * base seed.  Each point gets an independent, reproducible fault
     * stream that depends only on its identity -- never on worker
     * count, completion order, or which other points are swept.
     */
    static std::uint64_t derivePointSeed(std::uint64_t base,
                                         const std::string &strategy,
                                         unsigned cache_bytes);

  private:
    /** Advance the splitmix64 stream. */
    std::uint64_t next();

    /** One Bernoulli(rate) draw. */
    bool roll();

    FaultConfig _cfg;
    std::uint64_t _state;

    Counter _latencyFaults;
    Counter _jitterCycles;
    Counter _grantDelays;
    Counter _parityFaults;
};

} // namespace pipesim::fault

#endif // PIPESIM_FAULT_FAULT_HH

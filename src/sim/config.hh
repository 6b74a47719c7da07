/**
 * @file
 * Top-level simulation configuration, aggregating all of the paper's
 * simulation parameters, plus the Table II configuration presets.
 */

#ifndef PIPESIM_SIM_CONFIG_HH
#define PIPESIM_SIM_CONFIG_HH

#include <atomic>
#include <string>
#include <vector>

#include "core/fetch_unit.hh"
#include "cpu/pipeline.hh"
#include "fault/fault.hh"
#include "isa/encode.hh"
#include "mem/memory_system.hh"

namespace pipesim
{

/** Everything needed to instantiate one simulated machine. */
struct SimConfig
{
    FetchConfig fetch;
    MemSystemConfig mem;
    PipelineConfig cpu;

    /**
     * Deterministic fault injection (fault/fault.hh).  Disabled by
     * default; when enabled the Simulator builds a FaultInjector and
     * hands it to the memory system.
     */
    fault::FaultConfig fault;

    /**
     * Feed the CPI-stack cycle accountant (obs::CpiStack) from the
     * pipeline, registering the per-cause cycle breakdown as
     * "cpi_stack.*" counters.  On by default so every tool reports
     * it; turning it off skips only the accounting.
     */
    bool cpiStack = true;

    /** Hard cycle limit (a run exceeding it is a simulator error). */
    Cycle maxCycles = 1'000'000'000;

    /** Cycles without an instruction retiring => deadlock report. */
    Cycle progressWindow = 2'000'000;

    /**
     * Host-side cooperative cancellation.  When non-null, the tick
     * loops (Simulator::checkWatchdogs, ReplayMachine::watchdogs)
     * poll it and raise TimeoutAbort once it reads true — how the
     * sweep engine's --point-deadline-ms watchdog stops a point that
     * overran its wall-clock budget without killing the worker.  Not
     * part of the machine's identity: replay::configSha256 (and with
     * it every checkpoint and result-store cache key) ignores it.
     */
    const std::atomic<bool> *cancelFlag = nullptr;

    /** Human-readable description of the fetch side. */
    std::string fetchName() const;
};

/**
 * The paper's Table II IQ/IQB configurations, named "IQ-IQB":
 *
 *     name   line  IQ  IQB
 *     8-8      8    8    8
 *     16-16   16   16   16
 *     16-32   32   16   32
 *     32-32   32   32   32
 *
 * @param name        One of "8-8", "16-16", "16-32", "32-32".
 * @param cache_bytes Instruction cache size (parameter 2).
 * @throws FatalError for an unknown name.
 */
FetchConfig pipeConfigFor(const std::string &name, unsigned cache_bytes);

/** Conventional (always-prefetch) configuration with a given cache. */
FetchConfig conventionalConfigFor(unsigned cache_bytes,
                                  unsigned line_bytes = 16);

/**
 * Target-instruction-buffer configuration (paper section 2.1): the
 * TIB replaces the cache; @p tib_bytes is the total buffer capacity
 * and @p entry_bytes the per-target entry size.
 */
FetchConfig tibConfigFor(unsigned tib_bytes, unsigned entry_bytes = 16);

/** Names of the four Table II configurations, in paper order. */
const std::vector<std::string> &tableIIConfigNames();

} // namespace pipesim

#endif // PIPESIM_SIM_CONFIG_HH

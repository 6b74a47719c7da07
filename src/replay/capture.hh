/**
 * @file
 * Trace capture: a probe-bus listener that records the committed
 * instruction stream of a cycle-accurate run into a replay::Trace.
 *
 * Capture listens to the pipeline's retire probe, so it records
 * exactly the architectural instruction stream — squashed wrong-path
 * fetches never appear.  The stream is a property of the program
 * alone (PIPE has no speculation that changes committed results), so
 * one capture drives replays under every machine configuration; the
 * recorded provenance says which machine produced it.
 */

#ifndef PIPESIM_REPLAY_CAPTURE_HH
#define PIPESIM_REPLAY_CAPTURE_HH

#include <deque>
#include <string>

#include "obs/probe.hh"
#include "replay/trace_format.hh"

namespace pipesim
{
class Program;
class Simulator;
struct SimConfig;
} // namespace pipesim

namespace pipesim::replay
{

/**
 * Records every retirement of one Simulator run.  Attach before
 * running, run to completion, then call finish() for the trace.
 */
class TraceCapture
{
  public:
    /** @param provenance Free-form capture description stored in the
     *                    trace header. */
    TraceCapture(Simulator &sim, std::string provenance);
    ~TraceCapture();

    TraceCapture(const TraceCapture &) = delete;
    TraceCapture &operator=(const TraceCapture &) = delete;

    /**
     * Detach and hand over the finished trace (meta filled in,
     * sha256 computed by encoding the records once).
     */
    Trace finish();

  private:
    obs::ProbeBus &_bus;
    obs::ProbePoint<obs::RetireEvent>::ListenerId _id;
    bool _connected = true;
    Trace _trace;

    /**
     * Records as they retire.  A deque grows in fixed-size chunks, so
     * capture never holds a doubling vector's slack or a
     * reallocation's two copies; finish() copies the records once
     * into the exact-size Trace::records.
     */
    std::deque<TraceRecord> _records;
};

/**
 * Convenience: run a fresh Simulator over @p program with capture
 * attached and return the trace.
 * @throws SimAbort / FatalError exactly as the underlying run would.
 */
Trace captureTrace(const SimConfig &config, const Program &program,
                   const std::string &provenance);

} // namespace pipesim::replay

#endif // PIPESIM_REPLAY_CAPTURE_HH

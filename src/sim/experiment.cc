#include "sim/experiment.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <mutex>
#include <sstream>

#include "common/abort.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "replay/replay_engine.hh"
#include "sim/guard.hh"

namespace pipesim
{

std::string
SweepResult::failureReport() const
{
    if (failures.empty())
        return "";
    std::ostringstream os;
    os << failures.size() << " sweep point(s) failed:\n";
    for (const PointFailure &f : failures) {
        os << "  " << f.strategy << ":" << f.cacheBytes << ": "
           << f.message << "\n";
        std::istringstream lines(f.snapshot);
        std::string line;
        while (std::getline(lines, line))
            os << "    " << line << "\n";
    }
    return os.str();
}

std::optional<SimConfig>
makeValidSweepConfig(const SweepSpec &spec, const std::string &strategy,
                     unsigned cache_bytes)
{
    // Validity gates that need no config: a conventional cache must
    // hold at least one line, a TIB at least two entries' worth of
    // parcels.
    if (strategy == "conv" && cache_bytes < spec.convLineBytes)
        return std::nullopt;
    if (strategy == "tib" && cache_bytes < 2 * parcelBytes)
        return std::nullopt;

    SimConfig cfg;
    cfg.mem = spec.mem;
    cfg.cpu = spec.cpu;
    if (strategy == "conv") {
        cfg.fetch = conventionalConfigFor(cache_bytes, spec.convLineBytes);
    } else if (strategy == "tib") {
        cfg.fetch = tibConfigFor(cache_bytes, spec.tibEntryBytes);
    } else {
        cfg.fetch = pipeConfigFor(strategy, cache_bytes);
        cfg.fetch.offchipPolicy = spec.policy;
        // PIPE configurations name a line size; the cache must fit it.
        if (cfg.fetch.lineBytes > cache_bytes)
            return std::nullopt;
    }
    if (spec.maxCycles)
        cfg.maxCycles = spec.maxCycles;
    if (spec.progressWindow)
        cfg.progressWindow = spec.progressWindow;
    return cfg;
}

bool
sweepPointValid(const SweepSpec &spec, const std::string &strategy,
                unsigned cache_bytes)
{
    return makeValidSweepConfig(spec, strategy, cache_bytes).has_value();
}

std::vector<SweepPointPlan>
planSweepPoints(const SweepSpec &spec)
{
    std::vector<SweepPointPlan> points;
    points.reserve(spec.cacheSizes.size() * spec.strategies.size());
    for (std::size_t r = 0; r < spec.cacheSizes.size(); ++r) {
        for (std::size_t c = 0; c < spec.strategies.size(); ++c) {
            auto cfg = makeValidSweepConfig(spec, spec.strategies[c],
                                            spec.cacheSizes[r]);
            if (!cfg)
                continue;
            SweepPointPlan p;
            p.row = r;
            p.col = c;
            p.cacheBytes = spec.cacheSizes[r];
            p.strategy = spec.strategies[c];
            p.cfg = std::move(*cfg);
            points.push_back(std::move(p));
        }
    }
    return points;
}

namespace
{

/**
 * One planned point plus the runtime state runCacheSweep tracks for
 * it.  Runtime fields are written by the point's own worker and read
 * only after all workers joined.
 */
struct SweepPoint
{
    SweepPointPlan plan;

    /** Set when the point failed. */
    std::optional<PointFailure> failure;
    std::exception_ptr error;

    /** Host telemetry (same publication rule). */
    std::uint64_t wallNs = 0;
};

/** Turn the exception behind @p p.error into a structured record. */
PointFailure
describeFailure(const SweepPoint &p)
{
    PointFailure f;
    f.strategy = p.plan.strategy;
    f.cacheBytes = p.plan.cacheBytes;
    try {
        std::rethrow_exception(p.error);
    } catch (const SimAbort &e) {
        f.message = e.what();
        if (e.hasSnapshot())
            f.snapshot = e.snapshot().toString();
    } catch (const std::exception &e) {
        f.message = e.what();
    } catch (...) {
        f.message = "unknown error";
    }
    return f;
}

/**
 * Throttled progress heartbeat for a running sweep.  Writes only to
 * stderr, so the rendered table on stdout stays byte-identical
 * whether or not --progress is on and for any worker count.
 */
class ProgressReporter
{
  public:
    ProgressReporter(bool enabled, std::size_t total)
        : _enabled(enabled && total > 0), _total(total),
          _startNs(obs::profileNowNs())
    {
    }

    /** Record one finished point; prints at most every ~200 ms, but
     *  always prints the final point. */
    void pointDone()
    {
        if (!_enabled)
            return;
        const std::size_t done = ++_completed;
        std::lock_guard<std::mutex> lock(_mutex);
        const std::uint64_t now = obs::profileNowNs();
        if (done < _total && now - _lastPrintNs < kThrottleNs)
            return;
        _lastPrintNs = now;
        const double elapsed = double(now - _startNs) * 1e-9;
        const double eta =
            elapsed / double(done) * double(_total - done);
        std::fprintf(
            stderr, "[sweep] %zu/%zu points (%d%%) elapsed %.1fs eta %.1fs\n",
            done, _total, int(100.0 * double(done) / double(_total)),
            elapsed, eta);
    }

  private:
    static constexpr std::uint64_t kThrottleNs = 200'000'000;

    const bool _enabled;
    const std::size_t _total;
    const std::uint64_t _startNs;
    std::mutex _mutex; //!< guards _lastPrintNs and stderr interleaving
    std::atomic<std::size_t> _completed{0};
    std::uint64_t _lastPrintNs = 0;
};

/**
 * Pre-create every host metric a sweep can emit, so the exported key
 * set is identical for any worker count (the key-set contract in
 * obs/metrics.hh: a jobs=1 sweep never constructs a ThreadPool, so
 * the pool would otherwise only register its metrics when jobs>1).
 */
void
touchSweepMetrics()
{
    auto &reg = obs::MetricsRegistry::instance();
    reg.counter("pool.tasks");
    reg.counter("pool.busy_ns");
    reg.counter("pool.idle_ns");
    reg.counter("pool.empty_wakeups");
    reg.gauge("pool.workers");
    reg.histogram("pool.queue_depth");
    reg.histogram("sweep.point_ns");
}

} // namespace

SweepResult
runCacheSweep(const SweepSpec &spec, const Program &program,
              const std::function<void(const std::string &, unsigned,
                                       const SimResult &)> &on_point)
{
    obs::ScopedPhase sweepPhase("sweep", obs::Scope::Coarse);
    touchSweepMetrics();

    // The trace is checked and planned once, before any point runs:
    // a trace from another program, an empty trace or impossible
    // windowing fails the sweep, not every point.  Windows stay
    // serial inside a replayed point (jobs = 1): the sweep already
    // parallelizes across points, and nesting pools would
    // oversubscribe the host.
    std::optional<replay::PreparedReplay> replayer;
    if (spec.engine == SweepEngine::Trace) {
        if (!spec.trace)
            fatal("trace-engine sweep requested without a trace "
                  "(SweepSpec::trace is null)");
        if (spec.preRun || spec.postRun)
            warn("trace-engine sweep: preRun/postRun callbacks do not "
                 "fire (no Simulator exists under replay)");
        replay::ReplayOptions replayOpts;
        replayOpts.samplePeriod = spec.samplePeriod;
        replayOpts.sampleWarmup = spec.sampleWarmup;
        replayOpts.sampleMeasure = spec.sampleMeasure;
        replayer.emplace(program, *spec.trace, replayOpts);
    }

    std::vector<std::string> headers = {"cache_bytes"};
    for (const auto &s : spec.strategies)
        headers.push_back(s);
    Table table(std::move(headers));

    // Enumerate every valid point up front, building each SimConfig
    // exactly once.  Invalid points render "-" in the assembled table.
    const std::size_t rows = spec.cacheSizes.size();
    const std::size_t cols = spec.strategies.size();
    std::vector<std::vector<std::string>> cells(
        rows, std::vector<std::string>(cols, "-"));
    std::vector<SweepPoint> points;
    {
        obs::ScopedPhase phase("enumerate");
        std::vector<SweepPointPlan> plans = planSweepPoints(spec);
        points.reserve(plans.size());
        for (SweepPointPlan &plan : plans) {
            SweepPoint p;
            p.plan = std::move(plan);
            points.push_back(std::move(p));
        }
    }

    ProgressReporter progress(spec.progress, points.size());

    // Per-run state (Simulator, StatGroup, probe bus) is thread-local
    // to the point's worker; only the user callbacks share state, so
    // they are serialized under this mutex (see SweepSpec::preRun).
    std::mutex callbacks;
    // Run one point on the spec's engine.  Its failures propagate to
    // runPoint, which dispositions them.
    auto simulatePoint = [&](SweepPoint &p) {
        std::optional<Simulator> sim;
        SimResult result;
        if (replayer) {
            result = replayer->replay(p.plan.cfg);
        } else {
            sim.emplace(p.plan.cfg, program);
            if (spec.preRun) {
                std::lock_guard<std::mutex> lock(callbacks);
                spec.preRun(*sim, p.plan.strategy, p.plan.cacheBytes);
            }
            result = sim->run();
        }
        // Each point owns a distinct cell; no lock needed for it.
        cells[p.plan.row][p.plan.col] = std::to_string(result.totalCycles);
        if ((sim && spec.postRun) || on_point) {
            std::lock_guard<std::mutex> lock(callbacks);
            if (sim && spec.postRun)
                spec.postRun(*sim, p.plan.strategy, p.plan.cacheBytes,
                             result);
            if (on_point)
                on_point(p.plan.strategy, p.plan.cacheBytes, result);
        }
    };
    // Never lets a point failure escape: it is captured on the point
    // itself and dispositioned after every worker has joined, so one
    // bad point cannot take the sweep down mid-flight.  The only
    // early exit is a termination signal, which sets `interrupted`
    // and lets the remaining workers drain their current points.
    std::atomic<bool> interrupted{false};
    auto runPoint = [&](SweepPoint &p) {
        // Scope::Root: the phase attaches at the executing thread's
        // root, so the aggregated "point" path is identical whether
        // the point ran inline (jobs=1) or on a pool worker.
        obs::ScopedPhase phase("point", obs::Scope::Root,
                               p.plan.strategy + ":" +
                                   std::to_string(p.plan.cacheBytes));
        const std::uint64_t start = obs::profileNowNs();
        if (pendingSignal()) {
            interrupted.store(true, std::memory_order_relaxed);
        } else {
            try {
                simulatePoint(p);
            } catch (const InterruptedError &) {
                // Not a point failure: the whole sweep is shutting
                // down and will rethrow after the workers join.
                interrupted.store(true, std::memory_order_relaxed);
            } catch (...) {
                p.error = std::current_exception();
                p.failure = describeFailure(p);
                cells[p.plan.row][p.plan.col] = "ERR";
            }
        }
        p.wallNs = obs::profileNowNs() - start;
        obs::MetricsRegistry::instance()
            .histogram("sweep.point_ns")
            .sample(p.wallNs);
        progress.pointDone();
    };

    const unsigned jobs = resolveJobCount(spec.jobs);
    {
        // Same phase name for both execution shapes, so profiler key
        // sets match across worker counts.
        obs::ScopedPhase phase("run_points");
        if (jobs <= 1 || points.size() <= 1) {
            // Serial: run in deterministic (size, strategy) order on
            // the calling thread.
            for (SweepPoint &p : points)
                runPoint(p);
        } else {
            ThreadPool pool(std::min<std::size_t>(jobs, points.size()));
            std::vector<std::future<void>> futures;
            futures.reserve(points.size());
            for (SweepPoint &p : points)
                futures.push_back(
                    pool.submit([&runPoint, &p] { runPoint(p); }));
            // runPoint captures failures instead of throwing; waiting
            // on every future is a pure join.
            for (auto &f : futures)
                f.get();
        }
    }

    // A termination signal aborts the whole sweep (after the join, so
    // in-flight points have finished): no table, no ERR cells — the
    // guard reports the clean shutdown and the exit code.
    if (interrupted.load(std::memory_order_relaxed) || pendingSignal()) {
        const int sig = pendingSignal();
        throw InterruptedError(sig ? sig : SIGINT);
    }

    obs::ScopedPhase assemblePhase("assemble");

    // Disposition failures in enumeration order, so the report (and
    // the FailFast choice of exception) is identical for any --jobs.
    std::vector<PointFailure> failures;
    std::exception_ptr first;
    for (auto &p : points) {
        if (!p.failure)
            continue;
        failures.push_back(*p.failure);
        if (!first)
            first = p.error;
    }
    if (spec.failurePolicy == SweepFailurePolicy::FailFast && first)
        std::rethrow_exception(first);

    // Timings mirror enumeration order: deterministic key sequence
    // (strategy, cacheBytes) for any worker count, with only wallNs
    // carrying host timing.
    std::vector<PointTiming> timings;
    timings.reserve(points.size());
    for (const auto &p : points)
        timings.push_back({p.plan.strategy, p.plan.cacheBytes, p.wallNs});

    for (std::size_t r = 0; r < rows; ++r) {
        table.beginRow();
        table.cell(spec.cacheSizes[r]);
        for (std::size_t c = 0; c < cols; ++c)
            table.cell(cells[r][c]);
    }

    if (spec.onSweepEnd)
        spec.onSweepEnd();
    return SweepResult{std::move(table), std::move(failures),
                       std::move(timings)};
}

} // namespace pipesim

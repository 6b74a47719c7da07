#!/usr/bin/env python3
"""pipesim's benchmark: the paper's Figure 4/5 grids and trace replay,
timed end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload fig4-serial --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source tree.  The first run builds the library
and the driver under .bench_build/perfbench.  Every simulated result
is checked against golden/; the last line of stdout is one JSON object
with "correct", "attempted", "failed" and "metrics".  The run is also
written as a pipesim-bench v1 document (plus, when traced, its layer
spans) under .bench_build/perfbench/results/.  README.md describes the
workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
GOLDEN = os.path.join(HERE, "golden")

SIZES = [16, 32, 64, 128, 256, 512, 1024]
STRATEGIES = ["conv", "8-8", "16-16", "16-32", "32-32"]

# Figure panels each workload sweeps, and the driver's point modes.
WORKLOADS = {
    "fig4-serial": (["4a", "4b"], ["cycle"]),
    "fig5-parallel": (["5a", "5b"], ["cycle"]),
    "replay-fig4": (["4a", "4b"], ["exact", "sampled"]),
}

# Longest a driver run may take before it is killed.
DRIVER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "run_s": "s",
    "sim_minst_per_s": "Minst/s",
    "point_ms_p50": "ms",
    "point_ms_p80": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpi_err_pct": "%",
}

PER_LAYER_UNITS = {
    "workloads.build_ms": "ms",
    "core.tick_ns_per_cycle": "ns/cycle",
    "core.icache_miss_rate": "ratio",
    "core.offchip_lines_per_kinst": "lines/kinst",
    "core.squashed_bytes_per_kinst": "bytes/kinst",
    "mem.tick_ns_per_cycle": "ns/cycle",
    "mem.requests_per_cycle": "req/cycle",
    "mem.input_bus_busy_frac": "ratio",
    "mem.output_bus_busy_frac": "ratio",
    "mem.extmem_busy_frac": "ratio",
    "cpu.tick_ns_per_cycle": "ns/cycle",
    "cpu.ipc": "inst/cycle",
    "cpu.stall_frac": "ratio",
    "sim.loop_ns_per_cycle": "ns/cycle",
    "sim.build_us_per_point": "us/point",
    "sim.trace_overhead": "ratio",
    "sim.trace_coverage": "ratio",
    "sweep.overhead_ms": "ms",
    "sweep.parallel_eff": "ratio",
    "sweep.slowest_point_ms": "ms",
    "replay.capture_ms": "ms",
    "replay.sync_points_ms": "ms",
    "replay.plan_windows_us": "us",
    "replay.exact_ns_per_inst": "ns/inst",
    "replay.sampled_ns_per_inst": "ns/inst",
    "replay.windows": "count",
    "replay.warmup_frac": "ratio",
}

# The traced loop's layer self times must account for this share of
# its wall time.
MIN_TRACE_COVERAGE = 0.95


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"pipesim sources not found under {ROOT}/src; run from the "
            "root of a source tree")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        # Keep the compiler's temporary files inside the checkout too.
        tmp = os.path.join(BUILD, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
                die("build failed: " + " ".join(cmd))


def load_golden():
    """(panel, strategy, size) -> cycles from the seed's figure tables,
    plus the seed's instruction count and sampled-replay totals."""
    cycles = {}
    panel, columns = None, None
    with open(os.path.join(GOLDEN, "figures.txt")) as f:
        for line in f:
            heading = re.match(r"== Figure (\w+):", line)
            cells = line.split()
            if heading:
                panel, columns = heading.group(1), None
            elif cells and cells[0] == "cache_bytes":
                columns = cells[1:]
            elif cells and cells[0].isdigit() and columns:
                for strategy, value in zip(columns, cells[1:]):
                    if value != "-":
                        cycles[(panel, strategy, int(cells[0]))] = int(value)
    with open(os.path.join(GOLDEN, "seed.json")) as f:
        seed = json.load(f)
    sampled = {}
    for panel, points in seed["sampled_cycles"].items():
        for key, value in points.items():
            strategy, size = key.split(":")
            sampled[(panel, strategy, int(size))] = value
    return cycles, sampled, seed["instructions"]


def check_points(points, panels, modes, golden):
    """Failure messages for one pass: every valid point of every panel
    and mode present once, with the golden cycles and instructions."""
    cycles, sampled, insts = golden
    problems = []
    expected = {(m, k) for m in modes for k in cycles if k[0] in panels}
    seen = set()
    for p in points:
        key = (p["panel"], p["strategy"], p["size"])
        name = f"{p['panel']} {p['strategy']}:{p['size']} {p['mode']}"
        want = sampled if p["mode"] == "sampled" else cycles
        seen.add((p["mode"], key))
        if p["error"]:
            problems.append(f"{name}: {p['error']}")
        elif p["cycles"] != want.get(key) or p["insts"] != insts:
            problems.append(f"{name}: {p['cycles']} cycles / {p['insts']} "
                            f"insts, want {want.get(key)} / {insts}")
    problems += [f"{m} {k} missing" for m, k in sorted(expected - seen)]
    return problems


def cpi_err_pct(points, golden):
    """Mean |sampled - exact| / exact total cycles, in percent."""
    errs = []
    for p in points:
        if p["mode"] == "sampled":
            exact = golden[0][(p["panel"], p["strategy"], p["size"])]
            errs.append(abs(p["cycles"] - exact) / exact)
    return 100.0 * statistics.mean(errs)


def timed_metrics(raw, workload, golden):
    panels, modes = WORKLOADS[workload]
    problems, attempted = [], 0
    for rep in raw["reps"]:
        problems += check_points(rep, panels, modes, golden)
        attempted += len(rep)
    if raw["accuracy"]:
        problems += check_points(raw["accuracy"], panels, ["sampled"], golden)
        attempted += len(raw["accuracy"])
    sampled = raw["accuracy"] or raw["reps"][0]

    # Load from other tenants of a shared host comes in bursts shorter
    # than one repetition and only ever adds time.  So a point's time is
    # its fastest repetition, and each repetition's wall time is scaled
    # by how much faster its points ran at their best.  What remains is
    # the sweep's own cost, with its scheduling and slowest-point effects.
    def key(p):
        return (p["mode"], p["panel"], p["strategy"], p["size"])

    walls = {}
    for rep in raw["reps"]:
        for p in rep:
            walls.setdefault(key(p), []).append(p["wall_ns"])
    best = {k: min(v) for k, v in walls.items()}
    run_s = statistics.median(
        ns / 1e9 * sum(best[key(p)] for p in rep)
        / sum(p["wall_ns"] for p in rep)
        for rep, ns in zip(raw["reps"], raw["rep_ns"]))
    insts = sum(p["insts"] for p in raw["reps"][0])
    ms = [ns / 1e6 for k, ns in best.items() if k[0] != "sampled"]
    metrics = {
        "run_s": run_s,
        "sim_minst_per_s": insts / run_s / 1e6,
        "point_ms_p50": statistics.median(ms),
        "point_ms_p80": statistics.quantiles(ms, n=5)[3],
        "setup_s": statistics.median(raw["setup_ns"]) / 1e9,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "cpi_err_pct": cpi_err_pct(sampled, golden),
    }
    return metrics, attempted, problems


def traced_metrics(raw, workload, golden):
    panels, modes = WORKLOADS[workload]
    replay = raw["replay"]
    problems = check_points(raw["untraced"], panels, modes, golden)
    problems += check_points(raw["traced"], panels, ["cycle"], golden)
    problems += check_points(replay["points"], panels, ["exact", "sampled"],
                             golden)
    attempted = (len(raw["untraced"]) + len(raw["traced"])
                 + len(replay["points"]))

    spans, c = raw["spans"], raw["counters"]
    total = {k: sum(s[k] for s in spans) for k in spans[0]}
    loop_cycles = total["cycles"]
    sim_cycles = sum(p["cycles"] for p in raw["traced"])
    insts = sum(p["insts"] for p in raw["traced"])
    offchip = sum(c.get(k, 0) for k in (
        "fetch.offchip_demand_lines", "fetch.offchip_prefetch_lines",
        "fetch.demand_fetches", "fetch.prefetch_fetches"))
    requests = sum(c.get(k, 0) for k in (
        "mem.data_requests", "mem.demand_ifetch_requests",
        "mem.prefetch_requests"))
    lookups = c["fetch.icache.hits"] + c["fetch.icache.misses"]
    self_ns = total["core_ns"] + total["mem_ns"] + total["cpu_ns"] \
        + total["sim_loop_ns"]
    coverage = self_ns / total["loop_wall_ns"]
    if coverage < MIN_TRACE_COVERAGE:
        problems.append(f"layer self times cover {coverage:.1%} of the "
                        f"traced loop, below {MIN_TRACE_COVERAGE:.0%}")

    point_ns = sum(p["wall_ns"] for p in raw["untraced"])
    jobs, rep_ns = raw["jobs"], raw["rep_ns"]
    metrics = {
        "workloads.build_ms": statistics.median(raw["build_ns"]) / 1e6,
        "core.tick_ns_per_cycle": total["core_ns"] / loop_cycles,
        "core.icache_miss_rate": c["fetch.icache.misses"] / lookups,
        "core.offchip_lines_per_kinst": 1000.0 * offchip / insts,
        "core.squashed_bytes_per_kinst":
            1000.0 * c.get("fetch.squashed_bytes", 0) / insts,
        "mem.tick_ns_per_cycle": total["mem_ns"] / loop_cycles,
        "mem.requests_per_cycle": requests / loop_cycles,
        "mem.input_bus_busy_frac":
            c["mem.input_bus_busy_cycles"] / loop_cycles,
        "mem.output_bus_busy_frac":
            c["mem.output_bus_busy_cycles"] / loop_cycles,
        "mem.extmem_busy_frac": c["mem.extmem.busy_cycles"] / loop_cycles,
        "cpu.tick_ns_per_cycle": total["cpu_ns"] / loop_cycles,
        "cpu.ipc": insts / sim_cycles,
        "cpu.stall_frac": 1.0 - c["cpi_stack.issue"] / sim_cycles,
        "sim.loop_ns_per_cycle": total["sim_loop_ns"] / loop_cycles,
        "sim.build_us_per_point":
            statistics.median(s["build_ns"] for s in spans) / 1e3,
        "sim.trace_overhead": total["loop_wall_ns"] / total["untraced_ns"],
        "sim.trace_coverage": coverage,
        "sweep.overhead_ms": (rep_ns - point_ns / jobs) / 1e6,
        "sweep.parallel_eff": point_ns / (jobs * rep_ns),
        "sweep.slowest_point_ms":
            max(p["wall_ns"] for p in raw["untraced"]) / 1e6,
        "replay.capture_ms": replay["capture_ns"] / 1e6,
        "replay.sync_points_ms": replay["sync_points_ns"] / 1e6,
        "replay.plan_windows_us": replay["plan_ns"] / 1e3,
        "replay.exact_ns_per_inst": replay["exact_ns"] / replay["insts"],
        "replay.sampled_ns_per_inst": replay["sampled_ns"] / replay["insts"],
        "replay.windows": replay["windows"],
        "replay.warmup_frac":
            replay["warmup_insts"] / replay["replayed_insts"],
    }
    return metrics, attempted, problems


def layer_spans(raw):
    """One aggregated span per point per layer, children of the point."""
    out = []
    for point, s in zip(raw["traced"], raw["spans"]):
        name = f"{point['panel']} {point['strategy']}:{point['size']}"
        out.append({"point": name, "layer": "loop", "parent": None,
                    "start_ns": s["start_ns"], "ns": s["loop_wall_ns"],
                    "cycles": s["cycles"]})
        for layer in ("core", "mem", "cpu", "sim_loop"):
            out.append({"point": name, "layer": layer, "parent": "loop",
                        "start_ns": s["start_ns"],
                        "ns": s[layer + "_ns"], "cycles": s["cycles"]})
    return out


def git_rev():
    """$PIPESIM_GIT_REV, else this checkout's short HEAD, else "unknown"
    (the same order as obs::gitRevision)."""
    if os.environ.get("PIPESIM_GIT_REV"):
        return os.environ["PIPESIM_GIT_REV"]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                                "HEAD"], capture_output=True, text=True)
            if r.returncode == 0:
                return r.stdout.strip()
        except OSError:
            pass
    return "unknown"


def bench_document(args, raw, metrics, attempted, failed):
    """The run in the pipesim-bench v1 shape scripts/perf_report.py reads."""
    uname = os.uname()
    nproc = str(os.cpu_count() or 0)
    record = dict(metrics)
    record["points_attempted"] = attempted
    record["points_failed"] = failed / attempted
    return {
        "schema": "pipesim-bench", "schema_version": 1,
        "tool": "perfbench", "generated_unix": int(time.time()),
        "git_rev": git_rev(),
        "host": {"hostname": uname.nodename, "hardware_concurrency": nproc,
                 "nproc": nproc,
                 "os": f"{uname.sysname} {uname.release} {uname.machine}",
                 "compiler": raw["compiler"], "build": raw["build_type"]},
        "config": {"workload": args.workload, "seed": str(args.seed),
                   "seconds": str(args.seconds), "trace": str(args.trace)},
        "results": [{"name": args.workload, "metrics": record,
                     "config": {"jobs": str(raw["jobs"])}}],
        "profile": {"enabled": False, "wall_ns": 0, "coverage": 0,
                    "dropped_spans": 0, "phases": []},
        "metrics": {}, "histograms": {},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    golden = load_golden()

    # The seed only permutes the order the grid's rows and columns run
    # in; every check is keyed by (panel, strategy, size).
    rng = random.Random(args.seed)
    sizes, strategies = SIZES[:], STRATEGIES[:]
    rng.shuffle(sizes)
    rng.shuffle(strategies)
    cmd = [DRIVER, "--workload", args.workload,
           "--sizes", ",".join(map(str, sizes)),
           "--strategies", ",".join(strategies),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"driver exited with code {proc.returncode}")
    raw = json.loads(proc.stdout)

    if args.trace:
        metrics, attempted, problems = traced_metrics(raw, args.workload,
                                                      golden)
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, problems = timed_metrics(raw, args.workload,
                                                     golden)
        units = END_TO_END_UNITS
    failed = min(len(problems), attempted)

    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump(bench_document(args, raw, metrics, attempted, failed), f)
    if args.trace:
        with open(stem + "-spans.json", "w") as f:
            json.dump(layer_spans(raw), f)

    for problem in problems:
        print(f"FAIL {problem}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()

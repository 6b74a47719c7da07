#!/usr/bin/env bash
# Golden gate for every reproduced number.
#
# Regenerates each `=== <bench> ===` section of results/bench_full.txt
# from its reproduction bench at the default --scale 1.0 and compares
# the bench's stdout with the section byte for byte.  The figure
# sweeps fig4_memspeed1, fig5_memspeed6 and fig6_pipelined are run a
# second time with --engine trace (exact replay), which must render
# the same tables.  micro_simspeed is excluded: it prints host timings.
#
# Usage: scripts/golden_check.sh BENCH_DIR [GOLDEN_FILE] [--jobs N]
#   BENCH_DIR    directory holding the bench binaries (build/bench)
#   GOLDEN_FILE  defaults to results/bench_full.txt next to this script
#   --jobs N     sweep workers for the sweep benches (default 4); the
#                tables must not depend on it
#
# Exits 0 when every section matches, 1 with a unified diff per
# mismatching section otherwise.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
bench_dir="${1:?usage: golden_check.sh BENCH_DIR [GOLDEN_FILE] [--jobs N]}"
shift
golden="$here/../results/bench_full.txt"
if [[ $# -gt 0 && "$1" != --* ]]; then
    golden="$1"
    shift
fi
jobs=4
if [[ $# -gt 0 ]]; then
    [[ "$1" == --jobs && $# -eq 2 ]] || { echo "bad arguments: $*" >&2; exit 2; }
    jobs="$2"
fi

single_run=(table1_loop_sizes ablation_delay_slots ablation_format
            ablation_offchip_policy ablation_prefetch ablation_priority
            ablation_queue_sizes extension_branchy extension_dcache
            extension_tib)
sweeps=(fig4_memspeed1 fig5_memspeed6 fig6_pipelined sweep_memspeed)
replayed=(fig4_memspeed1 fig5_memspeed6 fig6_pipelined)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

failures=0
# check NAME LABEL CMD...: run CMD and diff its stdout with NAME's
# section of the golden file.
check() {
    local name="$1" label="$2"
    shift 2
    awk -v header="=== $name ===" '
        $0 == header { on = 1; next }
        /^=== .* ===$/ { on = 0 }
        on' "$golden" > "$work/want"
    if [[ ! -s "$work/want" ]]; then
        echo "FAIL $label: no '=== $name ===' section in $golden"
        failures=$((failures + 1))
        return
    fi
    if ! "$@" > "$work/got"; then
        echo "FAIL $label: bench exited non-zero"
        failures=$((failures + 1))
        return
    fi
    if diff -u --label "golden $name" --label "$label" \
            "$work/want" "$work/got"; then
        echo "ok   $label"
    else
        echo "FAIL $label: output differs from $golden"
        failures=$((failures + 1))
    fi
}

for b in "${single_run[@]}"; do
    check "$b" "$b" "$bench_dir/$b"
done
for b in "${sweeps[@]}"; do
    check "$b" "$b --jobs $jobs" "$bench_dir/$b" --jobs "$jobs"
done
for b in "${replayed[@]}"; do
    check "$b" "$b --engine trace --jobs $jobs" \
        "$bench_dir/$b" --engine trace --jobs "$jobs"
done

if [[ $failures -ne 0 ]]; then
    echo "golden: $failures check(s) failed"
    exit 1
fi
echo "golden: all checks match $golden"

#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#       one run of one workload; the last line of stdout is the result
#       JSON (this is the form BENCHMARK.json's command takes)
#   benchmark/run.sh [--seed N] [--seconds S] [--label L]
#       the whole suite: every workload untraced for the end-to-end
#       numbers, then every workload traced for the per-layer numbers;
#       result lines, detail files (provenance + only the metrics the run
#       measured) and traces are kept in benchmark/out/<L>/ (default
#       L=latest)
#
# Exit code 0 only when every run's output checks held.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"

# CI and the dev container have no network: route the build through the
# offline stub registry when it exists, exactly as devtools/bench-json.sh.
cargo_cmd=(cargo)
if [ -d "$root/devtools/offline-stubs/vendor" ]; then
    cargo_cmd=(bash "$root/devtools/offline-test.sh")
fi
# One target directory for every run, so only the first one builds.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
"${cargo_cmd[@]}" build --release --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/raa-benchmark"

# Provenance the program cannot know by itself.
RAA_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
RAA_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
RAA_BENCH_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
export RAA_BENCH_COMMIT RAA_BENCH_RUSTC RAA_BENCH_DATE

label=latest
pass=()
single=0
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --label) label="$2" ;;
        --workload) single=1; pass+=("$1" "$2") ;;
        *) pass+=("$1" "$2") ;;
    esac
    shift 2
done

if [ "$single" = 1 ]; then
    exec "$bin" --out "$here/out" "${pass[@]}"
fi

out="$here/out/$label"
mkdir -p "$out"
status=0
for trace in 0 1; do
    for workload in $("$bin" --primaries | cut -d' ' -f1); do
        log="$out/$workload.$trace.log"
        "$bin" --out "$out" "${pass[@]}" --workload "$workload" --trace "$trace" > "$log" ||
            { echo "run.sh: $workload (trace $trace) FAILED" >&2; status=1; }
        grep -v '^{' "$log" || true
        tail -n 1 "$log" > "$out/$workload.$trace.json"
    done
done
echo "run.sh: in $out: <workload>.<trace>.json (result lines), detail.<workload>.<trace>.json, trace.<workload>.json"
exit $status

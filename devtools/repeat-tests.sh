#!/usr/bin/env bash
# Flake hunt: run the raa-runtime and raa-core suites N times (default 20)
# in debug, then N times in release (a double settle once showed only
# there), and stop at the first failure, printing which pass and
# iteration failed and that run's output.
# Usage: devtools/repeat-tests.sh [N]
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
n="${1:-20}"

# CI and the dev container have no network: route cargo through the
# offline stub registry when it exists, exactly as benchmark/run.sh.
cargo_cmd=(cargo)
if [ -d "$root/devtools/offline-stubs/vendor" ]; then
    cargo_cmd=(bash "$root/devtools/offline-test.sh")
fi

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
cd "$root"
for pass in debug release; do
    suite=(test -q -p raa-runtime -p raa-core)
    if [ "$pass" = release ]; then
        suite+=(--release)
    fi
    # Build once up front so compiler output never lands in an
    # iteration's log.
    "${cargo_cmd[@]}" "${suite[@]}" --no-run
    for i in $(seq 1 "$n"); do
        if ! "${cargo_cmd[@]}" "${suite[@]}" >"$log" 2>&1; then
            echo "repeat-tests: $pass FAILED on iteration $i of $n" >&2
            cat "$log" >&2
            exit 1
        fi
        echo "repeat-tests: $pass iteration $i/$n ok"
    done
    echo "repeat-tests: $pass $n/$n iterations green"
done

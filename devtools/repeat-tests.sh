#!/usr/bin/env bash
# Flake hunt: run the raa-runtime and raa-core suites N times (default 20)
# and stop at the first failure, printing which iteration failed and that
# run's output.
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
# Build once up front so compiler output never lands in an iteration's log.
"${cargo_cmd[@]}" test -q -p raa-runtime -p raa-core --no-run
for i in $(seq 1 "$n"); do
    if ! "${cargo_cmd[@]}" test -q -p raa-runtime -p raa-core >"$log" 2>&1; then
        echo "repeat-tests: FAILED on iteration $i of $n" >&2
        cat "$log" >&2
        exit 1
    fi
    echo "repeat-tests: iteration $i/$n ok"
done
echo "repeat-tests: $n/$n iterations green"

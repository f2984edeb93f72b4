#!/usr/bin/env bash
# Digest the stdout of the simulator-only figure binaries.
#
# Usage:
#   devtools/figure-digests.sh            # print "sha256  name" per binary
#   devtools/figure-digests.sh --check    # compare with devtools/figure-digests.txt
#
# The eight binaries below print nothing but simulated numbers (raa-sim,
# simsched, raa-vector, trace generation): no threads, no wall clock. A
# change to a simulator's bookkeeping must leave their stdout
# byte-identical at RAA_SCALE=small, and this is the check. Regenerate the
# committed file only in a change that means to move a simulated number:
#   devtools/figure-digests.sh > devtools/figure-digests.txt
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
committed="${root}/devtools/figure-digests.txt"
bins=(fig1_hybrid_memory fig1_sensitivity fig2_criticality_rsu fig3_vsr_sort
      fig5_parsec_scalability fig6_codesign_replay calibrate_sorts
      workload_characterization)
cargo_cmd=(cargo)
# CI and the dev container have no network: route the build through the
# offline stub registry when it exists (the digests are recorded with it).
if [ -d "${root}/devtools/offline-stubs/vendor" ]; then
    cargo_cmd=("${root}/devtools/offline-test.sh")
fi
target="${CARGO_TARGET_DIR:-${root}/target}"

cd "$root"
"${cargo_cmd[@]}" build --release -q -p raa-bench "${bins[@]/#/--bin=}" >&2
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
digests=""
for b in "${bins[@]}"; do
    RAA_SCALE=small "${target}/release/${b}" > "$out" 2>/dev/null ||
        { echo "figure-digests: ${b} failed" >&2; exit 1; }
    digests+="$(sha256sum < "$out" | cut -d' ' -f1)  ${b}"$'\n'
done
digests="${digests%$'\n'}"
if [ "${1:-}" = "--check" ]; then
    diff <(echo "$digests") "$committed" ||
        { echo "figure-digests: stdout of a figure binary changed (< now, > committed)" >&2; exit 1; }
    echo "figure-digests: ${#bins[@]} binaries byte-identical to ${committed#"$root"/}"
else
    echo "$digests"
fi

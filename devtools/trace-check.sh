#!/usr/bin/env bash
# CI trace gate: emit a Chrome trace of the cg shape and validate it.
#
# Usage:
#   devtools/trace-check.sh [out.json]
#
# `trace_report --trace` (the cg shape at its default size) writes JSON
# that must be well-formed Chrome-trace: a traceEvents array with
# process/thread metadata, complete ("X") slices, dependency flow arrows
# ("s"/"f" in matched pairs), and per-(pid,tid) monotone timestamps.
# What tracing costs is gated by devtools/price-check.sh on the
# benchmark's own traced run.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-trace_cg.json}"
cargo_cmd=(cargo)
if [ -d "${root}/devtools/offline-stubs/vendor" ]; then
    cargo_cmd=("${root}/devtools/offline-test.sh")
fi

echo "--- cg trace: emit + validate ${out} ---"
"${cargo_cmd[@]}" run --release -q -p raa-bench --bin trace_report \
    -- --trace "$out"
python3 - "$out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
evs = doc["traceEvents"]
assert isinstance(evs, list) and evs, "traceEvents missing or empty"
phases = {}
last = {}
for e in evs:
    phases[e["ph"]] = phases.get(e["ph"], 0) + 1
    if "ts" in e:
        key = (e.get("pid"), e.get("tid"))
        assert e["ts"] >= last.get(key, float("-inf")), \
            f"timestamps regress on track {key}"
        last[key] = e["ts"]
assert phases.get("M", 0) >= 2, "process/thread metadata missing"
assert phases.get("X", 0) > 0, "no complete slices"
assert phases.get("s", 0) > 0, "no dependency flow arrows"
assert phases.get("s") == phases.get("f"), "unmatched flow start/finish"
print(f"trace-check: {sys.argv[1]} OK — "
      + ", ".join(f"{k}:{v}" for k, v in sorted(phases.items())))
EOF

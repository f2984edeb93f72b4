#!/usr/bin/env bash
# CI telemetry gate: run the chaos campaign with the live telemetry
# plane + flight recorder on and validate the exported artefacts. (What
# the plane costs on the hot path is gated by devtools/price-check.sh.)
#
# Usage:
#   devtools/telemetry-check.sh [outdir]
#
# Three checks, all fatal:
#   1. `serving_load --chaos --telemetry` (twice, same seed) prints
#      bit-identical stdout including the TELEMETRY boolean lines, and
#      every telemetry boolean is true — snapshot taken, tenants and
#      latency histograms populated, sampler deltas emitted, and the
#      injected worker kill captured a flight bundle.
#   2. The exported snapshot JSON parses and carries the schema the
#      tooling relies on: counters, slab/shed state, the three global
#      histograms, and per-tenant breakdowns with labels and quantiles.
#   3. The flight bundle's Chrome trace parses, has process/thread
#      metadata and at least one event on a real worker track.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-telemetry_ci}"
cargo_cmd=(cargo)
if [ -d "${root}/devtools/offline-stubs/vendor" ]; then
    cargo_cmd=("${root}/devtools/offline-test.sh")
fi

echo "--- chaos campaign with telemetry: determinism + booleans ---"
rm -rf "$out"
RAA_SCALE=test RAA_FAULT_SEED=42 \
    "${cargo_cmd[@]}" run --release -q -p raa-bench --bin serving_load \
    -- --chaos --telemetry --out "$out" > telem1.out 2> telem1.err
RAA_SCALE=test RAA_FAULT_SEED=42 \
    "${cargo_cmd[@]}" run --release -q -p raa-bench --bin serving_load \
    -- --chaos --telemetry --out "$out" > telem2.out 2> /dev/null
echo "--- campaign stdout ---"; cat telem1.out
diff telem1.out telem2.out
grep -q 'TELEMETRY(A)  : snapshot-taken=true tenants-observed=true' telem1.out
grep -q 'queue-delay-recorded=true body-recorded=true deltas-emitted=true' telem1.out
tele_ok=$(grep -c 'flight-on-worker-kill=true bundle-artifacts-valid=true' telem1.out)
[ "$tele_ok" = 2 ] || {
    echo "telemetry-check: flight bundle booleans not true in both phases" >&2
    exit 1
}

echo "--- snapshot JSON schema ---"
python3 - "$out/A-snapshot.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("at_ns", "workers", "alive_workers", "counters", "slab", "shed",
            "flight_dumps", "queue_delay", "body", "job_e2e", "tenants"):
    assert key in doc, f"snapshot missing {key!r}"
c = doc["counters"]
for key in ("spawned", "completed", "shed", "hedged", "steals_ok", "wakes",
            "worker_deaths", "jobs_submitted", "jobs_deadline_missed", "parks"):
    assert key in c, f"counters missing {key!r}"
assert "wakes_per_task" in doc, "wakes_per_task attribution missing"
assert c["spawned"] > 0 and c["completed"] > 0, "campaign ran no tasks"
assert c["worker_deaths"] >= 1, "the injected worker kill is not in the snapshot"
for hist in ("queue_delay", "body", "job_e2e"):
    h = doc[hist]
    assert h["count"] == sum(n for _, _, n in h["buckets"]), \
        f"{hist}: count != bucket sum"
    assert all(lo <= hi for lo, hi, _ in h["buckets"]), f"{hist}: bucket bounds"
assert doc["body"]["count"] > 0, "no task bodies timed"
tenants = doc["tenants"]
assert tenants, "no per-tenant breakdowns"
for t in tenants:
    for key in ("id", "label", "qos", "completed", "shed", "deadline_missed",
                "queue_delay_p99_ns", "body_p99_ns", "queue_delay", "body"):
        assert key in t, f"tenant missing {key!r}"
labels = {t["label"] for t in tenants}
assert any(l.startswith("crit") for l in labels), "critical tenants missing"
assert any(l.startswith("doomed") for l in labels), "doomed tenants missing"
print(f"telemetry-check: snapshot OK — {len(tenants)} tenants, "
      f"{c['spawned']:.0f} spawned, body p99 bucket count {doc['body']['count']:.0f}")
EOF

echo "--- flight bundle trace ---"
python3 - "$out/A-flight-worker-death.trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
evs = doc["traceEvents"]
assert isinstance(evs, list) and evs, "flight trace empty"
phases = {}
workers = set()
for e in evs:
    phases[e["ph"]] = phases.get(e["ph"], 0) + 1
    if e["ph"] != "M":
        workers.add(e.get("tid"))
assert phases.get("M", 0) >= 2, "process/thread metadata missing"
assert sum(v for k, v in phases.items() if k != "M") > 0, "no recorded events"
print(f"telemetry-check: flight bundle OK — "
      + ", ".join(f"{k}:{v}" for k, v in sorted(phases.items()))
      + f", tracks {sorted(workers)}")
EOF
[ -s "$out/A-flight-worker-death.contention.txt" ] || {
    echo "telemetry-check: contention report missing" >&2
    exit 1
}

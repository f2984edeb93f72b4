#!/usr/bin/env bash
# CI observability price gate: what tracing and the telemetry plane cost
# per task on the batched hot path, against a budget in ns.
#
# Usage:
#   devtools/price-check.sh <out-dir>     # e.g. benchmark/out/check-a
#
# Reads `trace.price_ns_per_task` and `telemetry.price_ns_per_task` from
# <out-dir>/detail.task_flood.1.json — the traced `task_flood` run that
# `benchmark/run.sh` / `benchmark/check.sh` just made (each price is
# "with the layer − without it" over paired 200,000-task reps on the same
# host, so no committed reference series is involved). Fails when a price
# is over its budget, when the run did not measure it (a missing metric
# is never read as 0), or when the run itself failed.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: devtools/price-check.sh <out-dir>" >&2; exit 2; }
python3 - "$1/detail.task_flood.1.json" <<'EOF'
import json, sys

# ns per task. Each is twice the largest magnitude among 12 traced
# task_flood runs on the 2-vCPU recording host (179.6 and 58.5 ns;
# EXPERIMENTS.md "Observability prices"): they catch a layer's cost
# coming back several times over, not drift.
BUDGET_NS = {
    "trace.price_ns_per_task": 360,
    "telemetry.price_ns_per_task": 117,
}

path = sys.argv[1]
try:
    run = json.load(open(path))
except (OSError, ValueError) as e:
    sys.exit(f"price-check: cannot read {path}: {e}")
problems = []
if not run.get("correct") or run.get("failed") != 0:
    problems.append(f"the traced task_flood run failed: correct={run.get('correct')} failed={run.get('failed')}")
for name, budget in BUDGET_NS.items():
    metric = run.get("metrics", {}).get(name)
    if metric is None:
        problems.append(f"{name} was not measured")
        continue
    value = metric["value"]
    ok = value <= budget  # False for NaN
    print(f"price-check: {name} {value:.1f} ns/task (budget {budget}) {'ok' if ok else 'OVER'} — {metric.get('how', '')}")
    if not ok:
        problems.append(f"{name} {value:.1f} ns/task is over its {budget} ns budget")
for p in problems:
    print("price-check: FAIL:", p, file=sys.stderr)
sys.exit(1 if problems else 0)
EOF

#!/usr/bin/env bash
# Run the whole suite twice on the same commit and fail unless the two
# sets of runs agree: every end-to-end metric a workload measures itself
# (`raa-benchmark --primaries`; the aliases are the same number again)
# within its own bound from BENCHMARK.json, no failed operation in any
# run, the bypass predictions holding on metrics that were measured, and
# sim.stats_digest repeating.
#
#   benchmark/check.sh [--seed N] [--seconds S]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"

status=0
"$here/run.sh" "$@" --label check-a || status=1
"$here/run.sh" "$@" --label check-b || status=1

target="${CARGO_TARGET_DIR:-$here/target}"
primaries="$("$target/release/raa-benchmark" --primaries)"

python3 - "$root/BENCHMARK.json" "$here/out/check-a" "$here/out/check-b" "$status" "$primaries" <<'EOF'
import json, os, sys

manifest = json.load(open(sys.argv[1]))
dirs = sys.argv[2:4]
problems = ["a run of the suite exited non-zero"] if sys.argv[4] != "0" else []
primaries = {line.split()[0]: line.split()[1:] for line in sys.argv[5].splitlines()}
cpus = os.cpu_count() or 1


def result(d, workload, trace):
    return json.loads(open(f"{d}/{workload}.{trace}.json").read())


def value(r, name):
    return r["metrics"][name]["value"]


for w in (w["name"] for w in manifest["workloads"]):
    a, b = (result(d, w, 0) for d in dirs)
    for side, r in zip("ab", (a, b)):
        if not r["correct"] or r["failed"] != 0:
            problems.append(f"{w} run {side}: correct={r['correct']} failed={r['failed']}")
    for m in manifest["end_to_end"]:
        if m["name"] not in primaries[w]:
            continue
        va, vb = value(a, m["name"]), value(b, m["name"])
        if min(va, vb) <= 0:
            problems.append(f"{w} {m['name']}: {va:.6g} and {vb:.6g}, an end-to-end metric is never 0")
            continue
        gap = abs(va - vb) / min(va, vb)
        verdict = "ok" if gap <= m["bound"] else "DISAGREE"
        print(f"{w:15} {m['name']:12} a={va:<14.6g} b={vb:<14.6g} gap {gap:6.1%} (bound {m['bound']:.0%}) {verdict}")
        if gap > m["bound"]:
            problems.append(f"{w} {m['name']}: {va:.6g} vs {vb:.6g} differ by {gap:.1%} > {m['bound']:.0%}")

# What each workload must bypass, read from the traced runs' own counters
# in the detail files, which list only what a run measured: a metric that
# was never recorded must not pass for a measured zero.
def layer(d, w, name):
    r = json.load(open(f"{d}/detail.{w}.1.json"))
    if not r["correct"] or r["failed"] != 0:
        problems.append(f"{w} traced run in {d}: correct={r['correct']} failed={r['failed']}")
    if name not in r["metrics"]:
        problems.append(f"{d}: {w} did not measure {name}")
        return float("nan")  # fails every comparison below
    return value(r, name)


for d in dirs:
    def expect(ok, what):
        if not ok:
            problems.append(f"{d}: {what}")

    for w in ("task_flood", "fork_tree"):
        expect(layer(d, w, "deps.edges_per_task") == 0, f"{w} wired dependency edges")
        expect(layer(d, w, "runtime.ready_at_spawn_frac") == 1, f"{w} had tasks not ready at spawn")
    for w in ("dep_graph", "solver_cg"):
        expect(layer(d, w, "deps.edges_per_task") > 0, f"{w} wired no dependency edges")
    if min(cpus, 4) >= 2:
        expect(layer(d, "fork_tree", "pool.steals_ok_per_ktask") > 0, "fork_tree never stole")
    # One worker: nobody to steal from (solver_cg has one on every host).
    for w in ("task_flood", "dep_graph") if min(cpus, 4) <= 2 else ():
        expect(layer(d, w, "pool.steals_ok_per_ktask") == 0, f"{w} stole with a single worker")
    expect(layer(d, "solver_cg", "pool.steals_ok_per_ktask") == 0, "solver_cg stole with a single worker")
    steady, overload = (layer(d, w, "overload.shed_frac") for w in ("serve_steady", "serve_overload"))
    expect(steady < 0.05, f"serve_steady shed {steady:.1%} of batch requests: the load step is mis-sized")
    expect(overload > 0.30, f"serve_overload shed only {overload:.1%}: the load step is mis-sized")

digests = [layer(d, "sim_pipeline", "sim.stats_digest") for d in dirs]
if digests[0] != digests[1]:  # an unmeasured digest is NaN and equals nothing
    problems.append(f"sim.stats_digest differs between the two runs: {digests}")

for p in problems:
    print("check.sh: FAIL:", p)
if not problems:
    print("check.sh: the two sets of runs agree within the benchmark's own bounds")
sys.exit(1 if problems else 0)
EOF

#!/usr/bin/env bash
# Prints the decision outputs of the three benchmark workloads (seed 1,
# untraced) as one JSON document: each workload's correctness verdict,
# failed-operation count and its four sim_* metrics at full float
# precision. Wall-clock metrics are left out, so the output is a
# cross-revision golden of what the scheduler decided, not how fast.
# Run from the repository root:
#
#	bash ci/perfbench-sim.sh > perfbench-sim.json
#	cmp perfbench-sim.json ci/golden/perfbench-sim.json
set -euo pipefail
for w in mixed scaleup faults; do
	echo "== $w"
	bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1
done | python3 -c '
import json, sys
out, name = {}, None
for line in sys.stdin:
    if line.startswith("== "):
        name = line[3:].strip()
        continue
    rec = json.loads(line)
    m = rec["metrics"]
    out[name] = {
        "correct": rec["correct"],
        "failed": rec["failed"],
        **{k: m[k]["value"] for k in ("sim_energy_wh", "sim_jct_p50_s", "sim_jct_tail_s", "sim_sla_ok_frac")},
    }
json.dump(out, sys.stdout, indent=1, sort_keys=True)
sys.stdout.write("\n")
'

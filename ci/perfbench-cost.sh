#!/usr/bin/env bash
# Prints the cost counters of the three benchmark workloads (seed 1,
# traced) as one sorted JSON document {workload: {counter: n}}: every
# perfstat counter of the run's ledger — scans, sorts, heap operations,
# placements — which repeat byte for byte for a given seed. Wall-clock
# figures are left out, so the output is a cross-revision golden of how
# much work each controller decision costs, not how fast it ran. Run
# from the repository root:
#
#	bash ci/perfbench-cost.sh > perfbench-cost.json
#	cmp perfbench-cost.json ci/golden/perfbench-cost.json
#
# Refresh rule: a change that lowers a counter regenerates the golden
# and lists each moved counter as old -> new in CHANGES.md; a change
# that raises one must explain why there. The re-golden steps that
# regenerate the decision goldens (ROADMAP items 2 and 6) regenerate
# this file along with them.
set -euo pipefail
for w in mixed scaleup faults; do
	echo "== $w"
	bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 1 | sed -n 1p
done | python3 -c '
import json, sys
out, name = {}, None
for line in sys.stdin:
    if line.startswith("== "):
        name = line[3:].strip()
        continue
    out[name] = json.loads(line)["ledger"]["counters"]
json.dump(out, sys.stdout, indent=1, sort_keys=True)
sys.stdout.write("\n")
'

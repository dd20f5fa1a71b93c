#!/usr/bin/env bash
# One table of the cross-revision byte goldens in ci/golden/ and the
# commands that produce them. Run from the repository root:
#
#	bash ci/goldens.sh check [name...]   # regenerate into golden-out/ and compare
#	bash ci/goldens.sh write [name...]   # regenerate and overwrite ci/golden/
#
# A name is a file name in ci/golden/; no names means every row. Each
# row lists one or more commands, each with the exit status it must
# return, and every one of them must reproduce the golden: that is how
# a row says "twice with the same seeds" or "at 1 and 8 workers".
# check fails on any moved byte, on a wrong exit status, on a file in
# ci/golden/ without a row and on a row without a file. write refuses
# to store a row whose commands disagree or exit wrongly.
#
# For every file that moved, both modes print the first differing line
# and class each changed line. Engine cost lines (engine_cost below:
# every perfstat counter line of the *-metrics.txt goldens and the
# engine/sim freelist_events and cancel_debt lines; and all of
# perfbench-cost.json, which holds the same perfstat counters) count the
# event queue's or a controller's own work; every other line is a
# decision line. Refresh
# rule: a change that lowers engine cost may write those lines, listing
# each old -> new in CHANGES.md; one that raises any explains why there.
# Decision lines move only in the re-golden steps named by the goldens
# rule in ROADMAP.md's open items.
set -euo pipefail

out=golden-out
engine_cost='counter +perfstat[.]|(engine|sim)[.](freelist_events|cancel_debt)'
all_cost=perfbench-cost.json

# name, exit status, command. A command writes the golden to $f; rows
# that repeat a name are further commands of the same row.
table() {
	cat <<'EOF'
FIDELITY-scale0.1.json      0 bench -check -scale 0.1 -parallel 8 -out $f
quickstart-audit.jsonl      0 sim -audit $f
quickstart-trace.json       0 sim -seed 7 -trace $f
quickstart-metrics.txt      0 sim -seed 7 -metrics | grep -v engine.events_per_sec > $f
quickstart-timeseries.jsonl 0 sim -seed 7 -timeseries $f
chaos-trace.jsonl           0 sim -scenario chaos -seed 7 -fault-seed 99 -trace $f -trace-format jsonl
chaos-trace.jsonl           0 sim -scenario chaos -seed 7 -fault-seed 99 -trace $f -trace-format jsonl
chaos-audit.jsonl           0 sim -scenario chaos -seed 7 -fault-seed 99 -audit $f
chaos-metrics.txt           0 sim -scenario chaos -seed 7 -fault-seed 99 -metrics | grep -v engine.events_per_sec > $f
search-smoke.json           0 bench -sweep policy -parallel 1 -out $f
search-smoke.json           0 bench -sweep policy -parallel 8 -out $f -report $out/search-observatory.html
search-full.json            0 bench -sweep policy -grid full -parallel 1 -out $f
search-full.json            0 bench -sweep policy -grid full -parallel 8 -out $f
chaos-broken.json           1 bench -sweep chaos -break-recovery -budget 60 -seed 11 -out $f
chaos-broken.json           1 bench -sweep chaos -break-recovery -budget 60 -seed 11 -out $f -parallel 8
job-wrap-sample.txt         0 sim -scenario job -benchmark Sort -data-gb 1200 -pms 12 -vms-per-pm 2 -audit $out/job-wrap-audit.jsonl -trace $out/job-wrap-trace.jsonl -trace-format jsonl && sample $out/job-wrap-audit.jsonl $out/job-wrap-trace.jsonl > $f
job-wrap-chrome-sample.txt  0 sim -scenario job -benchmark Sort -data-gb 1200 -pms 12 -vms-per-pm 2 -trace $out/job-wrap-trace.json -trace-format chrome && sample $out/job-wrap-trace.json > $f
perfbench-sim.json          0 perfbench sim > $f
perfbench-cost.json         0 perfbench cost > $f
bench-tables.txt            0 benchtables > $f
EOF
}

sim() { "$out/bin/hybridmr-sim" "$@"; }
bench() { "$out/bin/hybridmr-bench" "$@"; }

# sample FILE... prints every 64th line and the last line of each file,
# each under its file's base name and prefixed with its line number: a
# golden for exports too long to keep whole. The job-wrap rows' run
# wraps the audit ring and fills the trace store well past its first
# chunks; the chrome row pins that exporter's track ids on a long trace.
sample() {
	for f in "$@"; do
		echo "== ${f##*/}"
		awk '{ last = $0 } NR % 64 == 0 { print NR ": " $0 } END { if (NR % 64) print NR ": " last }' "$f"
	done
}

# benchtables prints fig8a's and ext-stream's tables at scale 0.1
# without their wall-time lines, then each experiment's events_fired
# from its BENCH_<id>.json. It runs inside $out, so the records land
# there and not in the repository root.
benchtables() {
	(
		cd "$out"
		bin/hybridmr-bench -only fig8a,ext-stream -scale 0.1 -parallel 8 -json | grep -v 'completed in'
		for id in fig8a ext-stream; do
			echo "$id $(grep '"events_fired"' "BENCH_$id.json")"
		done
	)
}

# perfbench sim|cost prints the three benchmark workloads at seed 1 as
# one sorted JSON document {workload: {...}}, with no wall-clock figure.
# sim runs untraced and keeps each workload's correctness verdict,
# failed-operation count and four sim_* metrics at full precision: what
# the scheduler decided. cost runs traced and keeps the ledger's
# perfstat counters (scans, sorts, heap operations, placements): how
# much work those decisions cost.
perfbench() {
	local trace=0 pick='$p'
	if [ "$1" = cost ]; then trace=1 pick=1p; fi
	for w in mixed scaleup faults; do
		echo "== $w"
		bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace "$trace" | sed -n "$pick"
	done | python3 -c '
import json, sys
out, name = {}, None
for line in sys.stdin:
    if line.startswith("== "):
        name = line[3:].strip()
    elif sys.argv[1] == "cost":
        out[name] = json.loads(line)["ledger"]["counters"]
    else:
        rec = json.loads(line)
        out[name] = {k: rec["metrics"][k]["value"] for k in ("sim_energy_wh", "sim_jct_p50_s", "sim_jct_tail_s", "sim_sla_ok_frac")}
        out[name].update(correct=rec["correct"], failed=rec["failed"])
json.dump(out, sys.stdout, indent=1, sort_keys=True)
print()
' "$1"
}

# moved WANT GOT NAME prints where GOT leaves WANT and the class of
# every changed line, < from WANT and > from GOT (the first ten of each
# class are shown).
moved() {
	local hunk line
	hunk=$(diff "$1" "$2" | head -n 1 || true) # 12c12, 12,14d11 or 12a13
	line=${hunk%%[,acd]*}
	case $hunk in *a*) line=$((line + 1)) ;; esac
	echo "$3: first differing line $line"
	echo "  want: $(sed -n "${line}p" "$1")"
	echo "  got:  $(sed -n "${line}p" "$2")"
	{ diff "$1" "$2" || true; } | grep '^[<>]' | awk -v all="$([ "$3" = "$all_cost" ] && echo 1)" -v re="$engine_cost" '
		{ c = (all || $0 ~ re) ? "engine cost" : "decision"; if (n[c]++ < 10) print "  " c ": " $0 }
		END { printf "  changed lines: %d engine cost, %d decision\n", n["engine cost"], n["decision"] }'
}

mode=${1:-}
case $mode in check | write) shift ;; *)
	echo "usage: bash ci/goldens.sh check|write [name...]" >&2
	exit 2
	;;
esac
cd "$(dirname "$0")/.."
names=$(table | awk '!seen[$1]++ { print $1 }')
fail=0
if [ "$mode" = check ]; then
	for g in ci/golden/*; do
		grep -qxF "${g#ci/golden/}" <<<"$names" || { echo "ci/golden/${g#ci/golden/}: no table row"; fail=1; }
	done
	for n in $names; do
		[ -f "ci/golden/$n" ] || { echo "$n: table row has no file in ci/golden/"; fail=1; }
	done
fi
want=${*:-$names}
for n in $want; do
	grep -qxF "$n" <<<"$names" || { echo "$n: no such golden; rows: $(echo $names)" >&2; exit 2; }
done

mkdir -p "$out/bin"
go build -o "$out/bin/" ./cmd/hybridmr-sim ./cmd/hybridmr-bench
for n in $want; do
	[ "$mode" = write ] || [ -f "ci/golden/$n" ] || continue # reported above
	k=0 row_ok=1
	while read -r _ status cmd; do
		k=$((k + 1))
		f=$out/$n
		[ "$k" = 1 ] || f=$out/run$k-$n
		rm -f "$f"
		got=0
		(eval "$cmd") </dev/null >"$f.log" 2>&1 || got=$?
		if [ "$got" != "$status" ]; then
			echo "$n: command $k exited $got, want $status: $cmd"
			tail -n 20 "$f.log"
			row_ok=0
		elif [ ! -f "$f" ]; then
			echo "$n: command $k wrote no file: $cmd"
			row_ok=0
		elif [ "$mode" = check ] || [ "$k" -gt 1 ]; then
			ref=ci/golden/$n
			[ "$mode" = check ] || ref=$out/$n
			cmp -s "$ref" "$f" || { moved "$ref" "$f" "$n"; row_ok=0; }
		fi
	done < <(table | awk -v n="$n" '$1 == n')
	if [ "$row_ok" = 0 ]; then
		fail=1
	elif [ "$mode" = write ]; then
		[ ! -f "ci/golden/$n" ] || cmp -s "ci/golden/$n" "$out/$n" || moved "ci/golden/$n" "$out/$n" "$n"
		cp "$out/$n" "ci/golden/$n"
		echo "$n: written"
	else
		echo "$n: ok"
	fi
done
exit "$fail"

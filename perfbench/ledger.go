package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/perfstat"
)

//go:embed ledger.json
var ledgerJSON []byte

// ledgerSpec is the benchmark's design record: per workload, why it was
// chosen and which per-layer metrics it bypasses (predicted zero); per
// layer metric, its unit and which end-to-end metric it should move on
// which workload.
type ledgerSpec struct {
	Workloads map[string]struct {
		Why  string   `json:"why"`
		Zero []string `json:"zero"`
	} `json:"workloads"`
	Layers []layerSpec `json:"layers"`
}

type layerSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
}

func loadLedger() (*ledgerSpec, error) {
	var l ledgerSpec
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		return nil, fmt.Errorf("ledger.json: %w", err)
	}
	return &l, nil
}

// endToEnd lists the end-to-end metrics, reported from untraced runs.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
	{"sim_jct_p50_s", "sim_s"},
	{"sim_jct_tail_s", "sim_s"},
	{"sim_energy_wh", "Wh"},
	{"sim_sla_ok_frac", "frac"},
}

// spanTimes is the span tree folded by name: self time (a span's wall
// time minus the part its children cover) and calls, summed over every
// position the name takes in the tree.
type spanTimes struct {
	self  map[string]float64
	total map[string]float64
	calls map[string]int64
}

func foldSpans(spans []perfstat.SpanSnapshot) spanTimes {
	st := spanTimes{self: map[string]float64{}, total: map[string]float64{}, calls: map[string]int64{}}
	var walk func([]perfstat.SpanSnapshot)
	walk = func(spans []perfstat.SpanSnapshot) {
		for _, sp := range spans {
			self := sp.WallSeconds
			for _, c := range sp.Children {
				self -= c.WallSeconds
			}
			st.self[sp.Name] += self
			st.total[sp.Name] += sp.WallSeconds
			st.calls[sp.Name] += sp.Count
			walk(sp.Children)
		}
	}
	walk(spans)
	return st
}

// runLayers maps each span name that may appear inside the timed run to
// the per-layer metric its self time is reported under. The benchmark's
// own spans (the loop, its SubmitJob and RunFor wrappers, client updates)
// fold into bench.other_s.
var runLayers = map[string]string{
	"engine.pump":      "sim.pump_self_s",
	"core.phase1":      "core.phase1_s",
	"core.drm":         "core.drm_s",
	"core.ips":         "core.ips_s",
	"mapred.schedule":  "mapred.schedule_s",
	"mapred.speculate": "mapred.speculate_s",
	"dfs.placement":    "dfs.placement_s",
	"fault.inject":     "fault.inject_s",
	"obs.export":       "obs.export_s",
	"bench.run":        "bench.other_s",
	"core.submit":      "bench.other_s",
	"sim.run":          "bench.other_s",
	"workload.clients": "bench.other_s",
}

// runSubtree returns the top-level span named name as a one-span tree.
func runSubtree(spans []perfstat.SpanSnapshot, name string) []perfstat.SpanSnapshot {
	for _, sp := range spans {
		if sp.Name == name {
			return []perfstat.SpanSnapshot{sp}
		}
	}
	return nil
}

// tracedLayers computes one traced repetition's per-layer metrics and
// checks that its span tree telescopes and that the reported run layers
// add up to the traced wall. It returns the metrics, the folded run
// spans, and a description of each failed check.
func tracedLayers(r *repResult) (map[string]float64, spanTimes, []string) {
	var fails []string
	sn := r.perf.Snapshot()
	if bad := perfstat.Telescopes(sn.Spans, 1e-6); bad != "" {
		fails = append(fails, "span "+bad+" does not telescope")
	}
	setup := foldSpans(runSubtree(sn.Spans, "bench.setup"))
	run := foldSpans(runSubtree(sn.Spans, "bench.run"))
	m := map[string]float64{}
	for _, layer := range runLayers {
		m[layer] = 0
	}
	for name, self := range run.self {
		layer, ok := runLayers[name]
		if !ok {
			fails = append(fails, "span "+name+" maps to no layer")
			continue
		}
		m[layer] += self
	}
	wall := run.total["bench.run"]
	sum := 0.0
	for _, self := range m {
		sum += self
	}
	if math.Abs(sum-wall) > 1e-6*math.Max(1, wall) {
		fails = append(fails, fmt.Sprintf("run layers sum to %.6fs, traced wall is %.6fs", sum, wall))
	}
	m["bench.run_s"] = wall
	m["setup.build_s"] = setup.total["setup.build"]
	m["setup.deploy_s"] = setup.total["setup.deploy"]
	m["setup.train_s"] = setup.total["setup.train"]

	c, o := r.runC, r.sim
	m["p1.training_runs"] = float64(r.setupC["p1.training_runs"] + c["p1.training_runs"])
	m["sim.events_fired"] = float64(o.fired)
	m["sim.events_cancelled"] = float64(o.cancelled)
	m["sim.fired_frac"] = ratio(float64(o.fired), float64(o.fired+o.cancelled))
	m["sim.max_pending"] = float64(o.maxPending)
	m["sim.host_us_per_event"] = ratio(wall*1e6, float64(o.fired))
	m["cluster.solves"] = float64(r.solves)
	m["cluster.solves_per_event"] = ratio(float64(r.solves), float64(o.fired))
	sub := append([]float64(nil), r.submitUS...)
	sort.Float64s(sub)
	m["core.submit_us_p50"] = quantile(sub, 0.5)
	_, m["core.submit_us_tail"] = tail(sub)
	m["p1.entries_per_estimate"] = ratio(float64(c["p1.profile_entries_scanned"]), float64(c["p1.estimates"]))
	m["drm.nodes_per_sweep"] = ratio(float64(c["drm.nodes_scanned"]), float64(c["drm.sweeps"]))
	m["ips.attempts_per_tick"] = ratio(float64(c["ips.attempts_scanned"]), float64(c["ips.ticks"]))
	m["jt.pairs_per_schedule"] = ratio(float64(c["jt.pairs_scanned"]), float64(c["jt.schedule_calls"]))
	m["mapred.attempts_per_task"] = ratio(float64(o.attempts), float64(o.tasks))
	m["dfs.draws_per_block"] = ratio(float64(c["dfs.placement_draws"]), float64(c["dfs.blocks_placed"]))
	m["dfs.repair_scans"] = float64(c["dfs.repair_scans"])
	m["fault.injections"] = float64(c["fault.injections"])
	m["fault.retarget_frac"] = ratio(float64(c["fault.retargets"]), float64(c["fault.injections"]))
	m["obs.trace_events"] = float64(r.traceEvts)
	m["obs.audit_records"] = float64(r.auditRecs)
	m["obs.ts_windows"] = float64(r.tsWindows)
	m["runtime.gc_cycles"] = float64(r.gcCycles)
	m["runtime.gc_pause_s"] = r.gcPauseS
	m["alloc_per_event_kb"] = ratio(float64(r.allocB)/1024, float64(o.fired))
	return m, run, fails
}

// countKeys are the per-layer metrics that count work on the simulated
// clock; they must repeat exactly across traced repetitions.
var countKeys = []string{
	"p1.training_runs", "sim.events_fired", "sim.events_cancelled", "sim.max_pending",
	"cluster.solves", "p1.entries_per_estimate", "drm.nodes_per_sweep", "ips.attempts_per_tick",
	"jt.pairs_per_schedule", "mapred.attempts_per_task", "dfs.draws_per_block", "dfs.repair_scans",
	"fault.injections", "fault.retarget_frac", "obs.trace_events", "obs.audit_records", "obs.ts_windows",
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapMB converts bytes to MiB.
func heapMB(b uint64) float64 { return float64(b) / (1 << 20) }

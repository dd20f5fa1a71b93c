package scalesweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/experiments"
)

// sweepReportJSON runs a small sweep at the given parallelism and
// returns only the deterministic report section's bytes.
func sweepReportJSON(t *testing.T, parallel int) []byte {
	t.Helper()
	prev := experiments.Parallelism
	experiments.Parallelism = parallel
	defer func() { experiments.Parallelism = prev }()
	f, err := Run(Options{Sizes: []int{8, 16, 32}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(f.Report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReportDeterministicAcrossParallelism pins the tentpole guarantee:
// the counter/exponent section of PERF.json is byte-identical whether
// sizes run serially or fan out across workers.
func TestReportDeterministicAcrossParallelism(t *testing.T) {
	serial := sweepReportJSON(t, 1)
	parallel := sweepReportJSON(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("sweep report differs between -parallel 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestSweepShape sanity-checks the small sweep: jobs complete at every
// size, core counters engage, exponents are fitted for the controllers
// the growth study is about, and the report names a complexity for each.
func TestSweepShape(t *testing.T) {
	f, err := Run(Options{Sizes: []int{8, 16, 32}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Report.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(f.Report.Results))
	}
	for _, r := range f.Report.Results {
		if r.Jobs == 0 || r.EventsFired == 0 || r.Trackers == 0 {
			t.Errorf("size %d: degenerate result %+v", r.Size, r)
		}
		for _, key := range []string{"jt.pairs_scanned", "drm.nodes_scanned", "p1.profile_entries_scanned", "dfs.placement_draws", "engine.heap_sift_swaps"} {
			if r.Counters[key] <= 0 {
				t.Errorf("size %d: counter %s did not engage", r.Size, key)
			}
		}
	}
	byName := make(map[string]Controller)
	for _, c := range f.Report.Controllers {
		byName[c.Name] = c
	}
	for _, name := range []string{"drm", "p1", "jt", "dfs", "engine"} {
		c, ok := byName[name]
		if !ok {
			t.Errorf("no controller verdict for %s", name)
			continue
		}
		if c.Complexity == "" || c.DrivenBy == "" {
			t.Errorf("controller %s: incomplete verdict %+v", name, c)
		}
	}
	if len(f.Wall) != 3 {
		t.Errorf("got %d wall results, want 3", len(f.Wall))
	}
	for _, c := range f.Report.Controllers {
		t.Logf("%-8s %-30s %s superlinear=%v", c.Name, c.DrivenBy, c.Complexity, c.Superlinear)
	}
}

// TestIndexedControllersStayFlat is the inverted superlinear guard: the
// scheduler-state indexes flattened jt, drm and p1 from n^2.2/n^2.0/
// n^1.6, and any change that lets one of them climb back above the
// acceptance ceiling must fail here before it reaches the datacenter-
// scale suite.
func TestIndexedControllersStayFlat(t *testing.T) {
	f, err := Run(Options{Seed: 1}) // default sizes 24, 96, 384
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Controller)
	for _, c := range f.Report.Controllers {
		byName[c.Name] = c
	}
	for _, name := range IndexedControllers {
		if _, ok := byName[name]; !ok {
			t.Errorf("no controller verdict for indexed controller %s", name)
		}
	}
	for _, c := range OverCeiling(f.Report.Controllers) {
		t.Errorf("%s regressed past the ceiling: grows %s via %s (ceiling O(n^%.1f))",
			c.Name, c.Complexity, c.DrivenBy, AcceptanceCeiling)
	}
}

// TestOverCeiling pins the guard's predicate: only indexed controllers
// count, and only strictly above the ceiling.
func TestOverCeiling(t *testing.T) {
	cs := []Controller{
		{Name: "dfs", MaxExponent: 2.0},
		{Name: "drm", MaxExponent: AcceptanceCeiling},
		{Name: "jt", MaxExponent: 1.3},
		{Name: "p1", MaxExponent: 0.5},
	}
	over := OverCeiling(cs)
	if len(over) != 1 || over[0].Name != "jt" {
		t.Fatalf("OverCeiling = %+v, want only jt", over)
	}
}

// TestFitExponents pins the log-log regression on a known power law.
func TestFitExponents(t *testing.T) {
	results := []SizeResult{
		{Size: 8, Counters: map[string]int64{"jt.pairs_scanned": 64, "dfs.blocks_placed": 8, "ips.ticks": 0}},
		{Size: 16, Counters: map[string]int64{"jt.pairs_scanned": 256, "dfs.blocks_placed": 16, "ips.ticks": 0}},
		{Size: 32, Counters: map[string]int64{"jt.pairs_scanned": 1024, "dfs.blocks_placed": 32, "ips.ticks": 0}},
	}
	exps := FitExponents(results)
	byName := make(map[string]Exponent)
	for _, e := range exps {
		byName[e.Counter] = e
	}
	if e := byName["jt.pairs_scanned"]; e.Exponent != 2 || !e.Superlinear {
		t.Errorf("quadratic counter fitted as %+v", e)
	}
	if e := byName["dfs.blocks_placed"]; e.Exponent != 1 || e.Superlinear {
		t.Errorf("linear counter fitted as %+v", e)
	}
	if _, ok := byName["ips.ticks"]; ok {
		t.Error("zero counter should be skipped, got a fit")
	}
	ctrls := ClassifyControllers(exps)
	if len(ctrls) != 2 {
		t.Fatalf("got %d controllers, want 2: %+v", len(ctrls), ctrls)
	}
	if ctrls[1].Name != "jt" || ctrls[1].Complexity != "O(n^2.00)" {
		t.Errorf("jt verdict wrong: %+v", ctrls[1])
	}
}

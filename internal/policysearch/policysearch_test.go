package policysearch

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
	"repro/internal/jsonenc"
	"repro/internal/policy"
)

// testGrid is a cut-down grid so the test stays fast while still
// crossing worker boundaries at parallelism 8.
func testGrid() []policy.Spec {
	return []policy.Spec{
		{},
		{Phase2: "fifo-p2"},
		{DRM: "static-split"},
	}
}

func runJSON(t *testing.T, parallelism int) []byte {
	t.Helper()
	prev := experiments.Parallelism
	experiments.Parallelism = parallelism
	defer func() { experiments.Parallelism = prev }()
	file, _, err := Run(Options{Grid: testGrid(), Seed: 11})
	if err != nil {
		t.Fatalf("Run(parallelism=%d): %v", parallelism, err)
	}
	data, err := jsonenc.Artifact(file)
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	return data
}

// TestParallelDeterminism is the satellite contract: the same grid at
// -parallel 1 and -parallel 8 yields byte-identical SEARCH.json —
// ordering, frontier and winner digest included.
func TestParallelDeterminism(t *testing.T) {
	serial := runJSON(t, 1)
	parallel := runJSON(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("SEARCH.json differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestRunShape checks the report's structural invariants: every
// candidate present in grid order, a non-empty frontier in grid order,
// and a winner digest referencing a frontier policy with audited
// decisions.
func TestRunShape(t *testing.T) {
	file, log, err := Run(Options{Grid: testGrid(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep := file.Report
	if len(rep.Candidates) != len(testGrid()) {
		t.Fatalf("candidates = %d, want %d", len(rep.Candidates), len(testGrid()))
	}
	for i, spec := range testGrid() {
		if rep.Candidates[i].Policy != spec.String() {
			t.Errorf("candidate %d = %q, want %q (grid order)", i, rep.Candidates[i].Policy, spec.String())
		}
		if rep.Candidates[i].Jobs != 6 {
			t.Errorf("candidate %d completed %d jobs", i, rep.Candidates[i].Jobs)
		}
		if rep.Candidates[i].EventsFired <= 0 {
			t.Errorf("candidate %d fired no events", i)
		}
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	prev := -1
	for _, p := range rep.Frontier {
		idx := -1
		for i, c := range rep.Candidates {
			if c.Policy == p {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatalf("frontier policy %q not among candidates", p)
		}
		if !rep.Candidates[idx].Pareto {
			t.Errorf("frontier policy %q not marked pareto", p)
		}
		if idx <= prev {
			t.Errorf("frontier out of grid order at %q", p)
		}
		prev = idx
	}
	if rep.Winner == nil {
		t.Fatal("no winner digest")
	}
	if rep.Winner.Decisions == 0 || len(rep.Winner.ByStage) == 0 {
		t.Errorf("winner digest empty: %+v", rep.Winner)
	}
	if log == nil || len(log.Records()) != rep.Winner.Decisions {
		t.Errorf("winner log records mismatch digest")
	}
	found := false
	for _, p := range rep.Frontier {
		if p == rep.Winner.Policy {
			found = true
		}
	}
	if !found {
		t.Errorf("winner %q not on frontier", rep.Winner.Policy)
	}
}

// TestRandomGridStable pins seeded sampling: same (n, seed) yields the
// same grid, and every sampled spec resolves.
func TestRandomGridStable(t *testing.T) {
	a, b := RandomGrid(6, 7), RandomGrid(6, 7)
	if len(a) != 6 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if _, err := a[i].Resolve(); err != nil {
			t.Errorf("sample %d does not resolve: %v", i, err)
		}
	}
}

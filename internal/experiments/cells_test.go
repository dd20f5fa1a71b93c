package experiments

import (
	"math"
	"testing"
	"time"
)

func TestCellConstructors(t *testing.T) {
	cases := []struct {
		name    string
		cell    Cell
		text    string
		value   float64
		numeric bool
	}{
		{"Str", Str("Sort"), "Sort", 0, false},
		{"Num", Num("2.35x", 2.35), "2.35x", 2.35, true},
		{"Int", Int(42), "42", 42, true},
		{"Pct", Pct(0.125), fmtPct(0.125), 0.125, true},
		{"F3", F3(0.469), "0.469", 0.469, true},
		{"F1", F1(43.24), "43.2", 43.24, true},
		{"F0", F0(43.4), "43", 43.4, true},
		{"Sec", Sec(7400 * time.Millisecond), fmtDur(7400 * time.Millisecond), 7.4, true},
	}
	for _, c := range cases {
		if c.cell.Text != c.text {
			t.Errorf("%s: text %q, want %q", c.name, c.cell.Text, c.text)
		}
		if c.cell.Numeric != c.numeric {
			t.Errorf("%s: numeric %v, want %v", c.name, c.cell.Numeric, c.numeric)
		}
		if c.numeric && math.Abs(c.cell.Value-c.value) > 1e-9 {
			t.Errorf("%s: value %g, want %g", c.name, c.cell.Value, c.value)
		}
	}
}

// TestTableNumericAccessors covers the value plumbing the fidelity
// suite reads: AddCells records numbers and backfills NaN for Str
// cells, and the accessors skip label cells instead of returning garbage zeros.
func TestTableNumericAccessors(t *testing.T) {
	tb := &Table{Columns: []string{"bench", "native", "virtual"}}
	tb.AddCells(Str("Sort"), F1(100), F1(150))
	tb.AddCells(Str("PiEst"), F1(80), F1(90))
	tb.AddCells(Str("Grep"), Str("n/a"), Str("n/a")) // string-only row: all NaN

	if v, ok := tb.Value("Sort", "virtual"); !ok || v != 150 {
		t.Errorf("Value(Sort, virtual) = %g, %v; want 150, true", v, ok)
	}
	if _, ok := tb.Value("Sort", "bench"); ok {
		t.Error("Value on a label cell should report no number")
	}
	if _, ok := tb.Value("Grep", "native"); ok {
		t.Error("Value on a string-only row should report no number")
	}
	if _, ok := tb.Value("missing", "native"); ok {
		t.Error("Value on a missing row should report no number")
	}

	if got := tb.Column("native"); len(got) != 2 || got[0] != 100 || got[1] != 80 {
		t.Errorf("Column(native) = %v, want [100 80]", got)
	}
	if got := tb.Column("bench"); len(got) != 0 {
		t.Errorf("Column over labels should be empty, got %v", got)
	}
	if got := tb.RowValues("PiEst"); len(got) != 2 || got[0] != 80 || got[1] != 90 {
		t.Errorf("RowValues(PiEst) = %v, want [80 90]", got)
	}
	if got := tb.RowValues("nope"); got != nil {
		t.Errorf("RowValues on a missing row should be nil, got %v", got)
	}

	// Rows and Vals must stay in lockstep — Fprint walks Rows while
	// the fidelity suite walks Vals.
	if len(tb.Rows) != len(tb.Vals) {
		t.Fatalf("Rows/Vals out of sync: %d vs %d", len(tb.Rows), len(tb.Vals))
	}
	for i := range tb.Rows {
		if len(tb.Rows[i]) != len(tb.Vals[i]) {
			t.Errorf("row %d: %d cells but %d vals", i, len(tb.Rows[i]), len(tb.Vals[i]))
		}
	}
}

func TestOutcomeScalar(t *testing.T) {
	var o Outcome
	o.Scalar("speedup", 2.35)
	o.Scalar("speedup", 3.0) // last write wins
	if got := o.Scalars["speedup"]; got != 3.0 {
		t.Errorf("Scalars[speedup] = %g, want 3.0", got)
	}
}

package fidelity

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/jsonenc"
)

// outcomeWith builds a minimal outcome carrying the given scalars and
// an optional table.
func outcomeWith(scalars map[string]float64, table *experiments.Table) *experiments.Outcome {
	if table == nil {
		table = &experiments.Table{ID: "t", Columns: []string{"k"}}
	}
	o := &experiments.Outcome{Table: table}
	for k, v := range scalars {
		o.Scalar(k, v)
	}
	return o
}

func sweepTable(col string, vals ...float64) *experiments.Table {
	t := &experiments.Table{ID: "t", Columns: []string{"x", col}}
	for i, v := range vals {
		t.AddCells(experiments.Int(i), experiments.F3(v))
	}
	return t
}

func TestOrdering(t *testing.T) {
	cases := []struct {
		name   string
		a, b   float64
		minGap float64
		want   Status
	}{
		{"clear gap", 2.0, 1.0, 0.5, Pass},
		{"exact boundary gap", 1.5, 1.0, 0.5, Pass},
		{"just under the gap", 1.49, 1.0, 0.5, Fail},
		{"tie passes at zero gap", 1.0, 1.0, 0, Pass},
		{"reversed order", 1.0, 2.0, 0, Fail},
		{"negative gap tolerates noise", 0.996, 1.0, -0.005, Pass},
		{"negative gap still bounds the deficit", 0.99, 1.0, -0.005, Fail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Ordering{Desc: "o", A: Ref{Scalar: "a"}, B: Ref{Scalar: "b"}, MinGap: tc.minGap}
			got := c.Eval(outcomeWith(map[string]float64{"a": tc.a, "b": tc.b}, nil), 1)
			if got.Status != tc.want {
				t.Fatalf("status = %s, want %s (%s)", got.Status, tc.want, got.Detail)
			}
		})
	}
	t.Run("missing scalar fails with diagnosis", func(t *testing.T) {
		c := Ordering{Desc: "o", A: Ref{Scalar: "absent"}, B: Ref{Scalar: "b"}}
		got := c.Eval(outcomeWith(map[string]float64{"b": 1}, nil), 1)
		if got.Status != Fail || !strings.Contains(got.Detail, "absent") {
			t.Fatalf("got %s %q, want Fail naming the scalar", got.Status, got.Detail)
		}
	})
}

func TestRatioBand(t *testing.T) {
	band := Two(Band{0.2, 0.5}, Band{-0.1, 0.5})
	cases := []struct {
		name  string
		v     float64
		scale float64
		want  Status
	}{
		{"inside full band", 0.39, 1, Pass},
		{"at full lower bound", 0.2, 1, Pass},
		{"at full upper bound", 0.5, 1, Pass},
		{"below full band", 0.19, 1, Fail},
		{"above full band", 0.51, 1, Fail},
		{"reduced band admits the scale-0.1 shape", 0.0, 0.1, Pass},
		{"reduced band still bounds above", 0.51, 0.1, Fail},
		{"full band applies at scale 0.5 and up", 0.0, 0.5, Fail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := RatioBand{Desc: "r", Value: Ref{Scalar: "v"}, Band: band}
			got := c.Eval(outcomeWith(map[string]float64{"v": tc.v}, nil), tc.scale)
			if got.Status != tc.want {
				t.Fatalf("status = %s, want %s (%s)", got.Status, tc.want, got.Detail)
			}
		})
	}
}

func TestRatioBandTableCell(t *testing.T) {
	tab := &experiments.Table{ID: "t", Columns: []string{"benchmark", "4-VM"}}
	tab.AddCells(experiments.Str("Wcount"), experiments.Pct(0.28))
	c := RatioBand{Desc: "cell", Value: Ref{Row: "Wcount", Col: "4-VM"}, Band: One(0.2, 0.4)}
	if got := c.Eval(outcomeWith(nil, tab), 1); got.Status != Pass {
		t.Fatalf("cell lookup: %s (%s)", got.Status, got.Detail)
	}
	miss := RatioBand{Desc: "cell", Value: Ref{Row: "PiEst", Col: "4-VM"}, Band: One(0, 1)}
	if got := miss.Eval(outcomeWith(nil, tab), 1); got.Status != Fail {
		t.Fatalf("missing row should fail, got %s", got.Status)
	}
}

func TestMonotone(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		dec  bool
		tol  float64
		want Status
	}{
		{"strictly rising", []float64{1, 2, 3}, false, 0, Pass},
		{"plateau passes", []float64{1, 2, 2}, false, 0, Pass},
		{"dip fails", []float64{1, 2, 1.9}, false, 0, Fail},
		{"dip within tolerance", []float64{1, 2, 1.99}, false, 0.02, Pass},
		{"strictly falling", []float64{3, 2, 1}, true, 0, Pass},
		{"uptick fails when decreasing", []float64{3, 2, 2.1}, true, 0, Fail},
		{"uptick within tolerance", []float64{3, 2, 2.01}, true, 0.02, Pass},
		{"single point fails", []float64{1}, false, 0, Fail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Monotone{Desc: "m", Series: Series{Col: "y"}, Decreasing: tc.dec, Tolerance: tc.tol}
			got := c.Eval(outcomeWith(nil, sweepTable("y", tc.vals...)), 1)
			if got.Status != tc.want {
				t.Fatalf("status = %s, want %s (%s)", got.Status, tc.want, got.Detail)
			}
		})
	}
	t.Run("row series", func(t *testing.T) {
		tab := &experiments.Table{ID: "t", Columns: []string{"config", "1GB", "8GB"}}
		tab.AddCells(experiments.Str("4-VM"), experiments.F1(6.0), experiments.F1(7.4))
		c := Monotone{Desc: "m", Series: Series{Row: "4-VM"}}
		if got := c.Eval(outcomeWith(nil, tab), 1); got.Status != Pass {
			t.Fatalf("row series: %s (%s)", got.Status, got.Detail)
		}
	})
}

func TestCrossover(t *testing.T) {
	cases := []struct {
		name    string
		vals    []float64
		endDrop float64
		want    Status
	}{
		{"interior peak with low ends", []float64{0.3, 1.0, 0.5}, 0.05, Pass},
		{"peak at first point", []float64{1.0, 0.8, 0.5}, 0.05, Fail},
		{"peak at last point", []float64{0.3, 0.8, 1.0}, 0.05, Fail},
		{"endpoint rivals the peak", []float64{0.97, 1.0, 0.5}, 0.05, Fail},
		{"endpoint exactly at the cap", []float64{0.95, 1.0, 0.5}, 0.05, Pass},
		{"too short", []float64{0.3, 1.0}, 0.05, Fail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Crossover{Desc: "x", Series: Series{Col: "y"}, EndDrop: tc.endDrop}
			got := c.Eval(outcomeWith(nil, sweepTable("y", tc.vals...)), 1)
			if got.Status != tc.want {
				t.Fatalf("status = %s, want %s (%s)", got.Status, tc.want, got.Detail)
			}
		})
	}
}

func TestCrossoverSortBy(t *testing.T) {
	// Display order hides the crossover; sorting by the VMs column
	// reveals it, as in Figure 11.
	tab := &experiments.Table{ID: "t", Columns: []string{"config", "VMs", "perf"}}
	tab.AddCells(experiments.Str("C1"), experiments.Int(12), experiments.F3(1.0))
	tab.AddCells(experiments.Str("C2"), experiments.Int(40), experiments.F3(0.5))
	tab.AddCells(experiments.Str("C3"), experiments.Int(0), experiments.F3(0.3))
	c := Crossover{Desc: "x", Series: Series{Col: "perf", SortBy: "VMs"}, EndDrop: 0.05}
	if got := c.Eval(outcomeWith(nil, tab), 1); got.Status != Pass {
		t.Fatalf("sorted crossover: %s (%s)", got.Status, got.Detail)
	}
}

func TestWithinPct(t *testing.T) {
	cases := []struct {
		name  string
		v     float64
		scale float64
		want  Status
	}{
		{"under the full ceiling", 0.05, 1, Pass},
		{"at the full ceiling", 0.12, 1, Pass},
		{"over the full ceiling", 0.13, 1, Fail},
		{"reduced ceiling admits more error", 0.20, 0.1, Pass},
		{"reduced ceiling still binds", 0.26, 0.1, Fail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := WithinPct{Desc: "w", Value: Ref{Scalar: "e"}, Max: 0.12, Reduced: 0.25}
			got := c.Eval(outcomeWith(map[string]float64{"e": tc.v}, nil), tc.scale)
			if got.Status != tc.want {
				t.Fatalf("status = %s, want %s (%s)", got.Status, tc.want, got.Detail)
			}
		})
	}
}

func TestKnownDivergence(t *testing.T) {
	t.Run("no guard is always waived", func(t *testing.T) {
		c := KnownDivergence{Desc: "d", Why: "documented gap"}
		got := c.Eval(outcomeWith(nil, nil), 1)
		if got.Status != Waived || got.Waiver != "documented gap" {
			t.Fatalf("got %s %q, want Waived with the why", got.Status, got.Waiver)
		}
	})
	t.Run("holding guard keeps the waiver", func(t *testing.T) {
		c := KnownDivergence{Desc: "d", Why: "gap", Instead: RatioBand{
			Desc: "g", Value: Ref{Scalar: "v"}, Band: One(0, 1),
		}}
		got := c.Eval(outcomeWith(map[string]float64{"v": 0.5}, nil), 1)
		if got.Status != Waived {
			t.Fatalf("got %s, want Waived (%s)", got.Status, got.Detail)
		}
	})
	t.Run("failing guard fails the waiver", func(t *testing.T) {
		c := KnownDivergence{Desc: "d", Why: "gap", Instead: RatioBand{
			Desc: "g", Value: Ref{Scalar: "v"}, Band: One(0, 1),
		}}
		got := c.Eval(outcomeWith(map[string]float64{"v": 2}, nil), 1)
		if got.Status != Fail || !strings.Contains(got.Detail, "guard failed") {
			t.Fatalf("got %s %q, want Fail citing the guard", got.Status, got.Detail)
		}
	})
	t.Run("a waiver never passes", func(t *testing.T) {
		// Even with a passing guard, the divergence itself stays visible.
		c := KnownDivergence{Desc: "d", Why: "gap", Instead: Ordering{
			Desc: "g", A: Ref{Scalar: "a"}, B: Ref{Scalar: "b"},
		}}
		got := c.Eval(outcomeWith(map[string]float64{"a": 2, "b": 1}, nil), 1)
		if got.Status == Pass {
			t.Fatal("KnownDivergence must not report Pass")
		}
	})
}

func TestReportTallies(t *testing.T) {
	var r Report
	r.Scale = 1
	r.Add(FigureResult{ID: "a", Results: []Result{
		{Name: "p", Status: Pass},
		{Name: "f", Status: Fail},
		{Name: "w", Status: Waived},
	}})
	r.Add(FigureResult{ID: "b", Error: "boom"})
	if r.Passed != 1 || r.Failed != 2 || r.Waived != 1 {
		t.Fatalf("tallies = %d/%d/%d, want 1/2/1", r.Passed, r.Failed, r.Waived)
	}
	if !r.HasFailures() {
		t.Fatal("HasFailures should be true")
	}
	b, err := jsonenc.Artifact(r)
	if err != nil {
		t.Fatal(err)
	}
	if b[len(b)-1] != '\n' {
		t.Fatal("JSON should end with a newline")
	}
	var sb strings.Builder
	r.Summary(&sb)
	for _, want := range []string{"FAIL", "WAIVE", "ERROR", "1 passed, 2 failed, 1 waived"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, sb.String())
		}
	}
}

func TestReportSummaryCostAnnotation(t *testing.T) {
	var r Report
	r.Scale = 1
	r.Add(FigureResult{
		ID:          "a",
		Results:     []Result{{Name: "p1", Status: Pass}, {Name: "p2", Status: Pass}},
		WallSeconds: 1.5,
		EventsFired: 4200,
	})
	var sb strings.Builder
	r.Summary(&sb)
	got := sb.String()
	if !strings.Contains(got, "1.5s") || !strings.Contains(got, "4200 events") {
		t.Fatalf("summary missing the wall-time/events annotation:\n%s", got)
	}
	// The annotation rides on the figure's first row only.
	if strings.Count(got, "4200 events") != 1 {
		t.Fatalf("cost annotation repeated:\n%s", got)
	}
	// And it must never leak into FIDELITY.json, which stays
	// byte-deterministic across runs.
	b, err := jsonenc.Artifact(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"wall", "events", "4200", "1.5"} {
		if strings.Contains(string(b), leak) {
			t.Fatalf("JSON leaks nondeterministic cost field %q:\n%s", leak, b)
		}
	}
}

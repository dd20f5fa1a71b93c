// Package experiments regenerates every table and figure of the paper's
// evaluation (Section II measurements and Section IV results). Each
// runner builds the scenario from the testbed package, drives the
// simulation, and returns the same rows/series the paper plots, plus
// headline notes comparing against the paper's reported numbers.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/critpath"
	"repro/internal/mapred"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Scale shrinks experiment input sizes for quick runs (1 = the paper's
// full sizes). Experiment runners multiply their data volumes by it; task
// counts and cluster shapes are unaffected.
var Scale = 1.0

func scaledMB(mb float64) float64 {
	s := Scale
	if s <= 0 {
		s = 1
	}
	out := mb * s
	if out < 256 {
		out = 256
	}
	return out
}

// mustResolve resolves a policy selection. Experiments name only
// registered policies, so a failure is a programming error.
func mustResolve(spec policy.Spec) *policy.Set {
	set, err := spec.Resolve()
	if err != nil {
		panic(err)
	}
	return set
}

// scaledSpec shrinks a benchmark's input (and fixed-work task count)
// by Scale.
func scaledSpec(spec mapred.JobSpec) mapred.JobSpec {
	if spec.FixedMapWork > 0 {
		n := int(float64(spec.FixedMapTasks) * Scale)
		if n < 4 {
			n = 4
		}
		spec.FixedMapTasks = n
		return spec
	}
	return spec.WithInputMB(scaledMB(spec.InputMB))
}

// Table is a printable experiment result.
type Table struct {
	// ID is the figure identifier, e.g. "fig1a".
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows hold formatted cells, parallel to Columns.
	Rows [][]string
	// Vals hold the numeric value behind each formatted cell, parallel
	// to Rows; cells that render no measurement (labels, config names)
	// carry NaN. The fidelity suite checks the paper's claims against
	// these, so they are exactly the numbers the table prints.
	Vals [][]float64
}

// AddCells appends a row of cells, keeping each cell's numeric value
// alongside its formatted text.
func (t *Table) AddCells(cells ...Cell) {
	row := make([]string, len(cells))
	vals := make([]float64, len(cells))
	for i, c := range cells {
		row[i] = c.Text
		if c.Numeric {
			vals[i] = c.Value
		} else {
			vals[i] = math.NaN()
		}
	}
	t.Rows = append(t.Rows, row)
	t.Vals = append(t.Vals, vals)
}

// ColIndex resolves a column header to its index, or -1.
func (t *Table) ColIndex(col string) int {
	for i, c := range t.Columns {
		if c == col {
			return i
		}
	}
	return -1
}

// RowIndex resolves a row by the text of its first cell, or -1.
func (t *Table) RowIndex(label string) int {
	for i, row := range t.Rows {
		if len(row) > 0 && row[0] == label {
			return i
		}
	}
	return -1
}

// Value looks up the numeric value of the cell at (row label, column
// header). The second return is false when the cell does not exist or
// is not numeric.
func (t *Table) Value(rowLabel, col string) (float64, bool) {
	ri, ci := t.RowIndex(rowLabel), t.ColIndex(col)
	if ri < 0 || ci < 0 || ci >= len(t.Vals[ri]) {
		return 0, false
	}
	v := t.Vals[ri][ci]
	if math.IsNaN(v) {
		return 0, false
	}
	return v, true
}

// Column returns the numeric values down a column in row order,
// skipping rows whose cell is not numeric.
func (t *Table) Column(col string) []float64 {
	ci := t.ColIndex(col)
	if ci < 0 {
		return nil
	}
	var out []float64
	for _, vals := range t.Vals {
		if ci < len(vals) && !math.IsNaN(vals[ci]) {
			out = append(out, vals[ci])
		}
	}
	return out
}

// RowValues returns the numeric values across the row with the given
// first-cell label, skipping non-numeric cells.
func (t *Table) RowValues(label string) []float64 {
	ri := t.RowIndex(label)
	if ri < 0 {
		return nil
	}
	var out []float64
	for _, v := range t.Vals[ri] {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
}

// Outcome is a completed experiment: its table plus headline notes that
// EXPERIMENTS.md records against the paper's claims.
type Outcome struct {
	Table *Table
	// Notes are "measured vs paper" headlines.
	Notes []string
	// Scalars are the named headline measurements behind the notes
	// (degradation extremes, fit qualities, savings ratios). The
	// fidelity suite asserts the paper's claims against these by name.
	Scalars map[string]float64
	// Metrics is the merged metrics-registry snapshot across every rig
	// the experiment built (counters and histogram buckets summed,
	// gauges maxed), recorded into BENCH_<id>.json by hybridmr-bench
	// -json. The merge is order-independent, so it is byte-identical at
	// any worker count.
	Metrics trace.Snapshot
	// CritPaths digests the critical path of representative jobs, keyed
	// by a deterministic label (typically the benchmark name).
	CritPaths map[string]critpath.Summary
}

// Notef appends a formatted note.
func (o *Outcome) Notef(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// Scalar records a named headline measurement.
func (o *Outcome) Scalar(name string, v float64) {
	if o.Scalars == nil {
		o.Scalars = make(map[string]float64)
	}
	o.Scalars[name] = v
}

// Fprint renders the outcome.
func (o *Outcome) Fprint(w io.Writer) {
	o.Table.Fprint(w)
	for _, n := range o.Notes {
		fmt.Fprintf(w, "  * %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered figure reproduction.
type Experiment struct {
	// ID is the figure identifier ("fig8b").
	ID string
	// Title describes what the paper's figure shows.
	Title string
	// Run executes the experiment.
	Run func() (*Outcome, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1a", "Virtualization overhead on Hadoop: % JCT increase, virtual vs native", Fig1a},
		{"fig1b", "Impact of data size on virtual Sort JCT", Fig1b},
		{"fig1c", "HDFS performance on virtual Hadoop (TestDFSIO), normalized to native", Fig1c},
		{"fig2a", "Network I/O effect: Same-Host vs Cross-Host virtual Hadoop", Fig2a},
		{"fig2b", "Effect of more CPU cycles: Kmeans with more VMs and slots", Fig2b},
		{"fig2c", "Native vs Dom-0 execution", Fig2c},
		{"fig2d", "Hadoop split architecture vs combined", Fig2d},
		{"fig5a", "JCT vs cluster size (end-to-end, normalized)", Fig5a},
		{"fig5b", "Map-phase completion time vs cluster size", Fig5b},
		{"fig5c", "Reduce-phase completion time vs cluster size", Fig5c},
		{"fig5d", "JCT vs input data size per cluster size", Fig5d},
		{"fig6a", "Phase I profiling accuracy: actual vs estimated JCT", Fig6a},
		{"fig6b", "CPU interference from collocated VMs", Fig6b},
		{"fig6c", "I/O interference from collocated VMs", Fig6c},
		{"fig8a", "Phase I placement gain over random placement (wmix-1/2/3)", Fig8a},
		{"fig8b", "Phase II single-job JCT reduction by managed resource", Fig8b},
		{"fig8c", "Phase II multi-job JCT reduction by managed resource", Fig8c},
		{"fig8d", "RUBiS latency vs clients: isolation / +MapReduce / HybridMR", Fig8d},
		{"fig9a", "SLA compliance timeline for RUBiS and TPC-W under HybridMR", Fig9a},
		{"fig9b", "Cross-platform JCT: Native vs Virtual vs HybridMR", Fig9b},
		{"fig9c", "Cross-platform savings: perf/energy, energy, servers, utilization", Fig9c},
		{"fig10a", "Resource utilization: baseline vs HybridMR", Fig10a},
		{"fig10b", "Live migration time of Hadoop VMs", Fig10b},
		{"fig10c", "Live migration downtime of Hadoop VMs", Fig10c},
		{"fig11", "Hybrid configuration design trade-off (C1-C20)", Fig11},
	}
}

// ByID finds an experiment among the paper figures and the extensions.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range Extensions() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fs", d.Seconds())
}

func fmtPct(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}

func fmtF(f float64) string {
	return fmt.Sprintf("%.3f", f)
}

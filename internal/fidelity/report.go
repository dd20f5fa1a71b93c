package fidelity

import (
	"fmt"
	"io"

	"repro/internal/experiments"
)

// FigureResult is one figure's evaluated assertions.
type FigureResult struct {
	ID      string   `json:"id"`
	Results []Result `json:"results,omitempty"`
	// Error records an experiment that failed to run at all.
	Error string `json:"error,omitempty"`
	// WallSeconds and EventsFired annotate the Summary table with how
	// long the experiment took and how much simulation it drove. They
	// are deliberately excluded from the JSON document: wall time is
	// nondeterministic and FIDELITY.json must stay byte-identical
	// across runs.
	WallSeconds float64 `json:"-"`
	EventsFired uint64  `json:"-"`
}

// Report is the FIDELITY.json document: per-figure verdicts with
// measured values and bounds, plus the tallies the CI gate keys off.
// It contains no timestamps or host details, so it is byte-identical
// across runs at any worker count.
type Report struct {
	Scale   float64        `json:"scale"`
	Figures []FigureResult `json:"figures"`
	Passed  int            `json:"passed"`
	Failed  int            `json:"failed"`
	Waived  int            `json:"waived"`
}

// Evaluate runs a figure's registered checks against its outcome.
func Evaluate(id string, o *experiments.Outcome, scale float64) FigureResult {
	fr := FigureResult{ID: id}
	for _, c := range For(id) {
		fr.Results = append(fr.Results, c.Eval(o, scale))
	}
	return fr
}

// Add appends a figure's verdicts and folds them into the tallies.
func (r *Report) Add(fr FigureResult) {
	r.Figures = append(r.Figures, fr)
	if fr.Error != "" {
		r.Failed++
		return
	}
	for _, res := range fr.Results {
		switch res.Status {
		case Pass:
			r.Passed++
		case Waived:
			r.Waived++
		default:
			r.Failed++
		}
	}
}

// HasFailures reports whether any unwaived assertion failed (or any
// experiment errored).
func (r *Report) HasFailures() bool { return r.Failed > 0 }

// Summary prints a per-assertion table — each figure annotated with its
// wall time and events fired when the caller recorded them — and the
// overall tally.
func (r *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "Fidelity suite at scale %g\n", r.Scale)
	for _, fig := range r.Figures {
		cost := ""
		if fig.WallSeconds > 0 {
			cost = fmt.Sprintf("  [%6.1fs  %9d events]", fig.WallSeconds, fig.EventsFired)
		}
		if fig.Error != "" {
			fmt.Fprintf(w, "  %-8s ERROR  %s\n", fig.ID, fig.Error)
			continue
		}
		for i, res := range fig.Results {
			status := "PASS"
			switch res.Status {
			case Fail:
				status = "FAIL"
			case Waived:
				status = "WAIVE"
			}
			// The cost annotation rides on the figure's first row only.
			rowCost := ""
			if i == 0 {
				rowCost = cost
			}
			fmt.Fprintf(w, "  %-8s %-5s  %s%s\n", fig.ID, status, res.Name, rowCost)
			if res.Status == Fail && res.Detail != "" {
				fmt.Fprintf(w, "  %-8s        %s\n", "", res.Detail)
			}
		}
	}
	fmt.Fprintf(w, "fidelity: %d passed, %d failed, %d waived\n", r.Passed, r.Failed, r.Waived)
}

// The SLO engine: declarative objectives evaluated per window over a
// Collector into error budgets and multi-window fast/slow burn-rate
// alerts, in the Google-SRE style — a short trailing span at a high burn
// threshold pages (a fast-burning budget needs a human now), a long span
// at a lower threshold tickets (a slow leak needs attention eventually).
// Evaluation is a pure function of the collector's windows, so the JSONL
// evaluation rows and the SLO.json summary are byte-deterministic.

package timeseries

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/jsonenc"
)

// Objective is one declarative service-level objective: an aggregate of
// one series compared against a threshold per window, with a good-event
// target and burn-rate alert policy.
type Objective struct {
	// Name identifies the objective in outputs.
	Name string `json:"name"`
	// Series is the telemetry series the objective reads; Label selects
	// one label stream, or "*" to aggregate every label of the series
	// (histograms merge order-independently; gauges and counters take the
	// worst window value, i.e. max).
	Series string `json:"series"`
	Label  string `json:"label"`
	// Agg picks the per-window aggregate: p50, p95, p99, mean or max for
	// histogram series; last or mean for gauges; rate for counters.
	Agg string `json:"agg"`
	// Op compares the aggregate to Threshold: "le" (good when value <=
	// threshold) or "ge" (good when value >= threshold). Utilization
	// bands are two objectives, one per bound.
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	// Target is the good-event target, e.g. 0.99; the error budget is
	// 1 - Target.
	Target float64 `json:"target"`
	// FastWindows/FastBurn and SlowWindows/SlowBurn parameterize the two
	// alert conditions: a trailing span of that many windows whose mean
	// burn rate (bad fraction over budget) at or above the threshold
	// fires. Zero values take defaults (3 windows at 10x, 12 windows at
	// 2x).
	FastWindows int     `json:"fast_windows"`
	FastBurn    float64 `json:"fast_burn"`
	SlowWindows int     `json:"slow_windows"`
	SlowBurn    float64 `json:"slow_burn"`
}

func (o Objective) withDefaults() Objective {
	if o.Target <= 0 || o.Target >= 1 {
		o.Target = 0.99
	}
	if o.FastWindows <= 0 {
		o.FastWindows = 3
	}
	if o.FastBurn <= 0 {
		o.FastBurn = 10
	}
	if o.SlowWindows <= 0 {
		o.SlowWindows = 12
	}
	if o.SlowBurn <= 0 {
		o.SlowBurn = 2
	}
	return o
}

// DefaultObjectives is the simulator's stock SLO set: interactive
// services answer within their SLA at p99, map tasks get slots promptly
// at p95, and the cluster's CPU stays out of the saturation band. The
// thresholds are chosen so a healthy run holds them and the chaos
// scenario's machine crash deterministically burns the slot-wait budget.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name: "interactive-latency-p99", Series: "service.latency_ms", Label: "*",
			Agg: "p99", Op: "le", Threshold: 2000, Target: 0.99,
		},
		{
			Name: "map-slot-wait-p95", Series: "mapred.task.slot_wait_sec", Label: "*",
			Agg: "p95", Op: "le", Threshold: 20, Target: 0.95,
		},
		{
			Name: "pm-cpu-saturation", Series: "cluster.util.cpu", Label: "",
			Agg: "mean", Op: "le", Threshold: 0.95, Target: 0.9,
		},
	}
}

// WindowEval is one objective's evaluation of one window — the SLO JSONL
// row schema.
type WindowEval struct {
	Objective string  `json:"objective"`
	Window    int     `json:"window"`
	StartS    float64 `json:"start_s"`
	EndS      float64 `json:"end_s"`
	// Value is the window's aggregate (NaN-free: windows with no data
	// report 0 with Events 0 and count as fully good).
	Value float64 `json:"value"`
	// GoodFrac is the window's good-event fraction; Events the
	// observation count behind it (0 for gauge/counter objectives, which
	// are all-or-nothing per window).
	GoodFrac float64 `json:"good_frac"`
	Events   uint64  `json:"events,omitempty"`
	// BurnFast/BurnSlow are the trailing burn rates ending at this
	// window; Alert is "", "ticket" or "page".
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	Alert    string  `json:"alert,omitempty"`
}

// Alert is one contiguous run of alerting windows.
type Alert struct {
	Objective string  `json:"objective"`
	Severity  string  `json:"severity"` // "page" or "ticket"
	StartS    float64 `json:"start_s"`
	EndS      float64 `json:"end_s"`
	Windows   int     `json:"windows"`
	PeakBurn  float64 `json:"peak_burn"`
}

// ObjectiveResult summarizes one objective over the run.
type ObjectiveResult struct {
	Objective Objective `json:"objective"`
	Windows   int       `json:"windows"`
	// BadWindows counts windows with any budget burn.
	BadWindows int `json:"bad_windows"`
	// BudgetConsumed is the fraction of the run's error budget spent:
	// mean bad fraction over windows divided by (1 - target). Above 1
	// the objective is missed.
	BudgetConsumed float64 `json:"budget_consumed"`
	// FirstBreachS is the start of the first window that burned budget,
	// or -1 when none did.
	FirstBreachS float64 `json:"first_breach_s"`
	Alerts       []Alert `json:"alerts,omitempty"`
	Met          bool    `json:"met"`
}

// SLOReport is the SLO.json document.
type SLOReport struct {
	Schema     string            `json:"schema"`
	WindowS    float64           `json:"window_s"`
	Windows    int               `json:"windows"`
	Objectives []ObjectiveResult `json:"objectives"`
	// Pages/Tickets count alert episodes across all objectives.
	Pages   int `json:"pages"`
	Tickets int `json:"tickets"`
}

// SLOSchema identifies the SLO.json layout.
const SLOSchema = "hybridmr.slo/v1"

// Evaluate runs every objective over the collector's windows and returns
// the summary plus the per-window evaluation rows (in objective order,
// windows ascending). A nil collector yields an empty report.
func Evaluate(c *Collector, objectives []Objective) (SLOReport, []WindowEval) {
	rep := SLOReport{Schema: SLOSchema}
	if c == nil || c.cursor < 0 {
		return rep, nil
	}
	rep.WindowS = c.width.Seconds()
	rep.Windows = c.cursor + 1
	var rows []WindowEval
	for _, obj := range objectives {
		obj = obj.withDefaults()
		res, objRows := evaluateObjective(c, obj)
		rep.Objectives = append(rep.Objectives, res)
		rows = append(rows, objRows...)
		for _, a := range res.Alerts {
			switch a.Severity {
			case "page":
				rep.Pages++
			case "ticket":
				rep.Tickets++
			}
		}
	}
	return rep, rows
}

func evaluateObjective(c *Collector, obj Objective) (ObjectiveResult, []WindowEval) {
	n := c.cursor + 1
	budget := 1 - obj.Target
	res := ObjectiveResult{Objective: obj, Windows: n, FirstBreachS: -1}
	badFrac := make([]float64, n)
	rows := make([]WindowEval, 0, n)

	for wi := 0; wi < n; wi++ {
		value, goodFrac, events := c.windowGood(obj, wi)
		badFrac[wi] = 1 - goodFrac
		if badFrac[wi] > 0 {
			res.BadWindows++
			if res.FirstBreachS < 0 {
				res.FirstBreachS = (time.Duration(wi) * c.width).Seconds()
			}
		}
		burnFast := trailingBurn(badFrac, wi, obj.FastWindows, budget)
		burnSlow := trailingBurn(badFrac, wi, obj.SlowWindows, budget)
		alert := ""
		switch {
		case burnFast >= obj.FastBurn:
			alert = "page"
		case burnSlow >= obj.SlowBurn:
			alert = "ticket"
		}
		p := c.point(wi)
		rows = append(rows, WindowEval{
			Objective: obj.Name,
			Window:    wi,
			StartS:    p.Start.Seconds(),
			EndS:      p.End.Seconds(),
			Value:     value,
			GoodFrac:  goodFrac,
			Events:    events,
			BurnFast:  burnFast,
			BurnSlow:  burnSlow,
			Alert:     alert,
		})
	}

	total := 0.0
	for _, b := range badFrac {
		total += b
	}
	res.BudgetConsumed = total / (float64(n) * budget)
	res.Met = res.BudgetConsumed <= 1
	res.Alerts = collapseAlerts(obj.Name, rows)
	return res, rows
}

// trailingBurn is the mean bad fraction over the span of windows ending
// at wi, divided by the error budget — the burn rate. Spans are clamped
// at the start of the run.
func trailingBurn(badFrac []float64, wi, span int, budget float64) float64 {
	lo := wi - span + 1
	if lo < 0 {
		lo = 0
	}
	sum := 0.0
	for i := lo; i <= wi; i++ {
		sum += badFrac[i]
	}
	return sum / (float64(wi-lo+1) * budget)
}

// collapseAlerts folds consecutive alerting windows into episodes; a
// severity change starts a new episode.
func collapseAlerts(objective string, rows []WindowEval) []Alert {
	var out []Alert
	var cur *Alert
	for _, r := range rows {
		if r.Alert == "" {
			cur = nil
			continue
		}
		if cur != nil && cur.Severity == r.Alert {
			cur.EndS = r.EndS
			cur.Windows++
			if b := maxf(r.BurnFast, r.BurnSlow); b > cur.PeakBurn {
				cur.PeakBurn = b
			}
			continue
		}
		out = append(out, Alert{
			Objective: objective,
			Severity:  r.Alert,
			StartS:    r.StartS,
			EndS:      r.EndS,
			Windows:   1,
			PeakBurn:  maxf(r.BurnFast, r.BurnSlow),
		})
		cur = &out[len(out)-1]
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// windowGood computes one objective's window aggregate, good fraction
// and event count. Dispatch follows the series' recorded kind — "mean"
// and "max" are meaningful for both gauges and histograms, so the data
// decides. Histogram objectives grade every observation against the
// threshold (bucket-resolution); gauge and counter objectives grade the
// window as a whole. Windows with no data are fully good.
func (c *Collector) windowGood(obj Objective, wi int) (value, goodFrac float64, events uint64) {
	switch c.kindOf(obj.Series, obj.Label) {
	case KindHist:
		h := c.windowHist(obj.Series, obj.Label, wi)
		if h == nil || h.Count() == 0 {
			return 0, 1, 0
		}
		switch obj.Agg {
		case "p50":
			value = h.Quantile(0.50)
		case "p95":
			value = h.Quantile(0.95)
		case "mean":
			value = h.Mean()
		case "max":
			value = h.Max()
		default: // p99
			value = h.Quantile(0.99)
		}
		frac := h.FractionAtOrBelow(obj.Threshold)
		if obj.Op == "ge" {
			// Good events are those at or above the threshold; the bucket
			// estimate's complement keeps the same resolution.
			frac = 1 - frac
		}
		return value, frac, h.Count()
	case KindGauge:
		v, ok := c.windowGauge(obj.Series, obj.Label, wi, obj.Agg == "last")
		if !ok {
			return 0, 1, 0
		}
		return v, boolFrac(compare(v, obj.Op, obj.Threshold)), 0
	case KindCounter:
		s := c.series[seriesKey{obj.Series, obj.Label}]
		if s == nil || wi > c.cursor {
			return 0, 1, 0
		}
		var delta float64
		if wi < len(s.counters) {
			delta = s.counters[wi]
		}
		v := delta / c.width.Seconds()
		return v, boolFrac(compare(v, obj.Op, obj.Threshold)), 0
	default:
		// The series never appeared in this run: no data, fully good.
		return 0, 1, 0
	}
}

// kindOf resolves a series name (honoring the "*" label wildcard) to its
// recorded kind, or "" when the series never appeared.
func (c *Collector) kindOf(name, label string) Kind {
	if label != "*" {
		if s := c.series[seriesKey{name, label}]; s != nil {
			return s.kind
		}
		return ""
	}
	for _, s := range c.order {
		if s.name == name {
			return s.kind
		}
	}
	return ""
}

// windowGauge reads a gauge window; label "*" takes the worst (max)
// value across labels.
func (c *Collector) windowGauge(name, label string, wi int, last bool) (float64, bool) {
	read := func(s *series) (float64, bool) {
		if s == nil || s.kind != KindGauge || wi >= len(s.gauges) || s.gauges[wi].n == 0 {
			return 0, false
		}
		if last {
			return s.gauges[wi].last, true
		}
		return s.gauges[wi].sum / float64(s.gauges[wi].n), true
	}
	if label != "*" {
		return read(c.series[seriesKey{name, label}])
	}
	worst, ok := 0.0, false
	for _, s := range c.sorted() {
		if s.name != name {
			continue
		}
		if v, has := read(s); has && (!ok || v > worst) {
			worst, ok = v, true
		}
	}
	return worst, ok
}

func compare(v float64, op string, threshold float64) bool {
	if op == "ge" {
		return v >= threshold
	}
	return v <= threshold
}

func boolFrac(good bool) float64 {
	if good {
		return 1
	}
	return 0
}

// WriteSLOJSONL appends the evaluation rows as JSONL (one row per
// objective-window), the stream the observatory and jq read.
func WriteSLOJSONL(w io.Writer, rows []WindowEval) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// JSON renders the report with stable formatting.
func (r SLOReport) JSON() ([]byte, error) {
	for _, o := range r.Objectives {
		if math.IsNaN(o.BudgetConsumed) || math.IsInf(o.BudgetConsumed, 0) {
			return nil, fmt.Errorf("timeseries: objective %s has non-finite budget", o.Objective.Name)
		}
	}
	return jsonenc.Artifact(r)
}

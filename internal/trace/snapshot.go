package trace

import (
	"sort"
	"time"
)

// HistogramStats is a point-in-time summary of a Histogram: the count,
// moments and estimated quantiles, in a JSON-friendly shape.
type HistogramStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time view of a Registry's metrics, suitable for
// embedding in result records. Maps marshal with sorted keys, so the
// JSON encoding is deterministic.
type Snapshot struct {
	Counters   map[string]float64        `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot summarizes every registered metric. A nil registry yields a
// zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var s Snapshot
	if len(r.counters) > 0 {
		s.Counters = make(map[string]float64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = HistogramStats{
				Count: h.Count(),
				Mean:  h.Mean(),
				Min:   h.Min(),
				Max:   h.Max(),
				P50:   h.Quantile(0.50),
				P95:   h.Quantile(0.95),
				P99:   h.Quantile(0.99),
			}
		}
	}
	return s
}

// MergeAll folds a batch of registries into r: counters and histogram
// buckets sum, and gauges take the maximum — the only order-independent
// combination for last-value-wins metrics, and the conservative reading
// for the utilization-style gauges the simulation publishes. Every float
// accumulation (counter totals, histogram sums) adds contributions in
// sorted numeric order, so the result is bit-identical no matter how
// the slice is ordered. This is what lets concurrent sweep points
// record into private registries, hand them over in worker-finish
// order, and still produce byte-identical snapshots at any worker
// count. Bucket counts and gauge maxima are intrinsically
// order-independent. A nil receiver is a no-op; nil entries are skipped.
func (r *Registry) MergeAll(others []*Registry) {
	if r == nil {
		return
	}
	counterVals := map[string][]float64{}
	gaugeMax := map[string]float64{}
	histSums := map[string][]float64{}
	for _, other := range others {
		if other == nil {
			continue
		}
		for name, c := range other.counters {
			counterVals[name] = append(counterVals[name], c.Value())
		}
		for name, g := range other.gauges {
			if v, seen := gaugeMax[name]; !seen || g.Value() > v {
				gaugeMax[name] = g.Value()
			}
		}
		for name, h := range other.hists {
			if h.count == 0 {
				// Still materialize the metric so snapshots keep the
				// same key set at any worker count.
				r.Histogram(name)
				continue
			}
			histSums[name] = append(histSums[name], h.sum)
			mine := r.Histogram(name)
			if mine.count == 0 || h.min < mine.min {
				mine.min = h.min
			}
			if mine.count == 0 || h.max > mine.max {
				mine.max = h.max
			}
			mine.count += h.count
			mine.zero += h.zero
			for i := range mine.buckets {
				mine.buckets[i] += h.buckets[i]
			}
		}
	}
	for name, vals := range counterVals {
		sort.Float64s(vals)
		total := 0.0
		for _, v := range vals {
			total += v
		}
		r.Counter(name).Add(total)
	}
	for name, v := range gaugeMax {
		if mine := r.Gauge(name); v > mine.Value() {
			mine.Set(v)
		}
	}
	for name, sums := range histSums {
		sort.Float64s(sums)
		total := 0.0
		for _, s := range sums {
			total += s
		}
		r.hists[name].sum += total
	}
}

// Event is an exported view of one recorded trace entry, for consumers
// (like the HTML report) that render events directly instead of going
// through a serialized export.
type Event struct {
	// Instant is true for zero-duration instant events, false for
	// complete spans.
	Instant bool
	// Start is the event's simulated start time; Duration is zero for
	// instants.
	Start    time.Duration
	Duration time.Duration
	// Track, Category and Name identify the event.
	Track    string
	Category string
	Name     string
	// Args are the event's annotations.
	Args []Arg
}

// Events returns every recorded event (plus still-open spans, rendered
// as running to the current instant) in deterministic emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.n+t.OpenSpans())
	var args []Arg // backs every event's Args; a regrowth leaves earlier events on the old array
	_ = t.each(func(ev *event) error {
		var evArgs []Arg
		if len(ev.args) > 0 {
			lo := len(args)
			for _, a := range ev.args {
				args = append(args, a.Arg)
			}
			evArgs = args[lo:len(args):len(args)]
		}
		out = append(out, Event{
			Instant:  ev.phase == 'i',
			Start:    ev.start,
			Duration: ev.dur,
			Track:    t.syms[ev.track].str,
			Category: t.syms[ev.cat].str,
			Name:     ev.name,
			Args:     evArgs,
		})
		return nil
	})
	return out
}

// Text returns the string value of an Arg, and whether it is a string
// argument (built with S).
func (a Arg) Text() (string, bool) { return a.str, !a.isNum }

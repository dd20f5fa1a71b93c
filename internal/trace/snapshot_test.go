package trace

import (
	"encoding/json"
	"testing"
)

func TestSnapshotSummarizes(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs").Add(3)
	r.Gauge("util").Set(0.7)
	for i := 1; i <= 100; i++ {
		r.Histogram("jct").Observe(float64(i))
	}
	s := r.Snapshot()
	if got := s.Counters["jobs"]; got != 3 {
		t.Errorf("counter jobs = %v, want 3", got)
	}
	if got := s.Gauges["util"]; got != 0.7 {
		t.Errorf("gauge util = %v, want 0.7", got)
	}
	h := s.Histograms["jct"]
	if h.Count != 100 || h.Min != 1 || h.Max != 100 {
		t.Errorf("hist jct = %+v, want count 100 min 1 max 100", h)
	}
	if h.P50 < 40 || h.P50 > 60 {
		t.Errorf("hist jct p50 = %v, want ~50", h.P50)
	}
}

func TestMergeIsOrderIndependent(t *testing.T) {
	build := func(vals []float64, gauge float64) *Registry {
		r := NewRegistry()
		r.Counter("n").Add(float64(len(vals)))
		r.Gauge("peak").Set(gauge)
		for _, v := range vals {
			r.Histogram("d").Observe(v)
		}
		return r
	}
	a := func() *Registry { return build([]float64{1, 2, 3}, 0.4) }
	b := func() *Registry { return build([]float64{10, 20}, 0.9) }

	ab := NewRegistry()
	ab.MergeAll([]*Registry{a(), b()})
	ba := NewRegistry()
	ba.MergeAll([]*Registry{b(), a()})

	sa, _ := json.Marshal(ab.Snapshot())
	sb, _ := json.Marshal(ba.Snapshot())
	if string(sa) != string(sb) {
		t.Fatalf("merge order changed snapshot:\n%s\n%s", sa, sb)
	}

	s := ab.Snapshot()
	if s.Counters["n"] != 5 {
		t.Errorf("merged counter n = %v, want 5", s.Counters["n"])
	}
	if s.Gauges["peak"] != 0.9 {
		t.Errorf("merged gauge peak = %v, want max 0.9", s.Gauges["peak"])
	}
	h := s.Histograms["d"]
	if h.Count != 5 || h.Min != 1 || h.Max != 20 || h.Mean != 36.0/5 {
		t.Errorf("merged hist d = %+v", h)
	}
}

func TestEventsExposesArgs(t *testing.T) {
	tr := New(&fakeClock{})
	tr.Instant("pm-0", "power", "on", S("why", "boot"), F("watts", 120))
	sp := tr.Begin("pm-0", "task", "m-0")
	sp.End()
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("len(Events()) = %d, want 2", len(evs))
	}
	if !evs[0].Instant || evs[0].Name != "on" {
		t.Errorf("event 0 = %+v, want instant 'on'", evs[0])
	}
	if txt, ok := evs[0].Args[0].Text(); !ok || txt != "boot" {
		t.Errorf("arg 0 text = %q/%v, want boot/true", txt, ok)
	}
	if arg := evs[0].Args[1]; !arg.isNum || arg.num != 120 {
		t.Errorf("arg 1 number = %v/%v, want 120/true", arg.num, arg.isNum)
	}
	if evs[1].Instant || evs[1].Track != "pm-0" {
		t.Errorf("event 1 = %+v, want span on pm-0", evs[1])
	}
}

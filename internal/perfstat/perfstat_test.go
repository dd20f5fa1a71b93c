package perfstat

import (
	"testing"
	"time"
)

// fakeClock drives the span tree deterministically.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

// TestNilSafety pins the nil-receiver contract: every method is a no-op.
func TestNilSafety(t *testing.T) {
	var s *Stats
	s.Enter("x")
	s.Exit()
	if sn := s.Snapshot(); sn.Counters != nil || sn.Spans != nil {
		t.Errorf("nil Snapshot not zero: %+v", sn)
	}
}

// TestSpanTelescoping verifies the invariant the span tree is built
// around: children sum to no more than their parent.
func TestSpanTelescoping(t *testing.T) {
	clk := &fakeClock{}
	s := New()
	s.now = clk.now

	s.Enter("engine.pump")
	clk.advance(10 * time.Millisecond)
	s.Enter("core.drm")
	clk.advance(30 * time.Millisecond)
	s.Exit()
	s.Enter("mapred.schedule")
	clk.advance(20 * time.Millisecond)
	s.Exit()
	clk.advance(5 * time.Millisecond)
	s.Exit()

	// A second pump with the same children accumulates into the same
	// nodes.
	s.Enter("engine.pump")
	s.Enter("core.drm")
	clk.advance(15 * time.Millisecond)
	s.Exit()
	s.Exit()

	sn := s.Snapshot()
	if len(sn.Spans) != 1 || sn.Spans[0].Name != "engine.pump" {
		t.Fatalf("unexpected span roots: %+v", sn.Spans)
	}
	pump := sn.Spans[0]
	if pump.Count != 2 {
		t.Errorf("pump count = %d, want 2", pump.Count)
	}
	if got, want := pump.WallSeconds, 0.080; got != want {
		t.Errorf("pump wall = %v, want %v", got, want)
	}
	if len(pump.Children) != 2 {
		t.Fatalf("pump has %d children, want 2", len(pump.Children))
	}
	if v := Telescopes(sn.Spans, 0); v != "" {
		t.Errorf("telescoping invariant violated at %q", v)
	}
}

// TestTelescopesDetectsViolation makes sure the checker is not
// vacuously true.
func TestTelescopesDetectsViolation(t *testing.T) {
	bad := []SpanSnapshot{{
		Name: "parent", WallSeconds: 1,
		Children: []SpanSnapshot{{Name: "child", WallSeconds: 2}},
	}}
	if v := Telescopes(bad, 0); v != "parent" {
		t.Errorf("Telescopes = %q, want parent", v)
	}
}

// TestUnbalancedExit pins that a stray Exit at the root is a no-op
// rather than corrupting the stack.
func TestUnbalancedExit(t *testing.T) {
	s := New()
	s.Exit()
	s.Enter("a")
	s.Exit()
	s.Exit()
	s.Enter("b")
	s.Exit()
	sn := s.Snapshot()
	if len(sn.Spans) != 2 {
		t.Errorf("got %d root spans, want 2 (a, b): %+v", len(sn.Spans), sn.Spans)
	}
}

// TestDeltaEach verifies the fieldwise delta used when flushing counter
// increments into a metrics registry.
func TestDeltaEach(t *testing.T) {
	var prev, cur Counters
	prev.DFSBlocksPlaced = 4
	cur.DFSBlocksPlaced = 10
	cur.EngineEventsFired = 2
	names := CounterNames()
	d := map[string]int64{}
	cur.EachDelta(&prev, func(i int, v int64) { d[names[i]] = v })
	if d["dfs.blocks_placed"] != 6 || d["engine.events_fired"] != 2 {
		t.Errorf("delta wrong: %v", d)
	}
	if len(d) != len(names) {
		t.Errorf("EachDelta visited %d counters, want %d", len(d), len(names))
	}
	seen := 0
	cur.Each(func(name string, v int64) { seen++ })
	if seen != len(names) {
		t.Errorf("Each visited %d counters, want %d", seen, len(names))
	}
}

// TestCounterAddZeroAlloc pins the satellite guarantee: incrementing
// cost counters — the form every instrumented hot loop uses — performs
// no allocations, whether stats are enabled or disabled (nil).
func TestCounterAddZeroAlloc(t *testing.T) {
	enabled := New()
	var disabled *Stats
	if allocs := testing.AllocsPerRun(1000, func() {
		if enabled != nil {
			enabled.C.DRMNodesScanned++
			enabled.C.JTPairsScanned += 7
		}
	}); allocs != 0 {
		t.Errorf("enabled counter adds allocate %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if disabled != nil {
			disabled.C.DRMNodesScanned++
		}
	}); allocs != 0 {
		t.Errorf("disabled counter adds allocate %.1f/op, want 0", allocs)
	}
}

// TestSpanWarmPathZeroAlloc pins that re-entering an already-created
// span (the steady state of every controller loop) does not allocate.
func TestSpanWarmPathZeroAlloc(t *testing.T) {
	s := New()
	s.Enter("core.drm")
	s.Exit() // warm: node now exists
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Enter("core.drm")
		s.Exit()
	}); allocs != 0 {
		t.Errorf("warm Enter/Exit allocates %.1f/op, want 0", allocs)
	}
	var nilStats *Stats
	if allocs := testing.AllocsPerRun(1000, func() {
		nilStats.Enter("core.drm")
		nilStats.Exit()
	}); allocs != 0 {
		t.Errorf("nil Enter/Exit allocates %.1f/op, want 0", allocs)
	}
}

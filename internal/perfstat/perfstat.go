// Package perfstat instruments the simulator itself — not the simulated
// system. It carries two signal classes:
//
//   - Algorithmic cost counters: deterministic tallies of how much work
//     each controller does (PMs scanned per DRM sweep, profile entries
//     scanned per Phase I estimate, tracker×kind pairs iterated per
//     JobTracker assignment round, replica candidates drawn per DFS block
//     placement, heap operations per engine pump). Counters are plain
//     int64 adds on a pre-allocated struct: no maps, no atomics, no
//     allocations on the hot path, and bit-identical totals at any
//     experiment worker count.
//
//   - Hierarchical wall-time spans: real (host) time attributed per
//     subsystem, nested by dynamic extent. A span's parent is whatever
//     span was open when it was entered, so controller ticks that fire
//     inside the engine pump show up under it. Children telescope:
//     the sum of a span's children never exceeds the span itself.
//
// A nil *Stats accepts the whole API as a no-op, so instrumented
// subsystems pay only a nil check when profiling is off — the same
// discipline as trace.Registry.
package perfstat

import (
	"sort"
	"time"
)

// Counters is the flat, pre-allocated cost-counter block. Incrementing a
// field is a plain int64 add; instrumented code does
//
//	if ps != nil {
//		ps.C.DRMNodesScanned += int64(len(nodes))
//	}
//
// which keeps the zero-alloc guarantee of the engine hot path intact.
type Counters struct {
	// Engine: the discrete-event pump.
	EngineEventsFired   int64
	EngineHeapPushes    int64
	EngineHeapPops      int64
	EngineHeapSiftSwaps int64
	EngineCompactions   int64

	// DRM: the Phase II node sweep (core/drm.go).
	DRMSweeps           int64
	DRMNodesScanned     int64
	DRMAttemptsObserved int64
	DRMSortCmps         int64

	// Phase I placement (core/phase1.go + the profiler database).
	P1Placements            int64
	P1CandidatesEvaluated   int64
	P1Estimates             int64
	P1ProfileEntriesScanned int64
	P1TrainingRuns          int64

	// IPS: the SLA monitor (core/ips.go).
	IPSTicks           int64
	IPSAttemptsScanned int64

	// JobTracker: slot assignment and speculation (mapred/jobtracker.go).
	// JTAttemptsSorted counts elements passed through the RunningAttempts
	// sort (not comparisons: comparison counts depend on the random
	// map-iteration order of the input and would break determinism).
	JTScheduleCalls    int64
	JTScheduleRounds   int64
	JTPairsScanned     int64
	JTPressureProbes   int64
	JTSpeculationScans int64
	JTAttemptsSorted   int64

	// DFS: block placement and repair (dfs/dfs.go).
	DFSBlocksPlaced   int64
	DFSPlacementDraws int64
	DFSRepairScans    int64

	// Fault injection. FaultRetargets counts chaos draws that landed on
	// an ineligible target (already dead, hung or isolated) and walked
	// forward to the next eligible one instead of no-oping.
	FaultInjections int64
	FaultRetargets  int64
}

// counterDefs maps exported JSON names to struct fields, in output order.
// The accessor returns a pointer so one table serves snapshots, deltas
// and merges without reflection.
var counterDefs = []struct {
	name string
	get  func(*Counters) *int64
}{
	{"dfs.blocks_placed", func(c *Counters) *int64 { return &c.DFSBlocksPlaced }},
	{"dfs.placement_draws", func(c *Counters) *int64 { return &c.DFSPlacementDraws }},
	{"dfs.repair_scans", func(c *Counters) *int64 { return &c.DFSRepairScans }},
	{"drm.attempts_observed", func(c *Counters) *int64 { return &c.DRMAttemptsObserved }},
	{"drm.nodes_scanned", func(c *Counters) *int64 { return &c.DRMNodesScanned }},
	{"drm.sort_cmps", func(c *Counters) *int64 { return &c.DRMSortCmps }},
	{"drm.sweeps", func(c *Counters) *int64 { return &c.DRMSweeps }},
	{"engine.compactions", func(c *Counters) *int64 { return &c.EngineCompactions }},
	{"engine.events_fired", func(c *Counters) *int64 { return &c.EngineEventsFired }},
	{"engine.heap_pops", func(c *Counters) *int64 { return &c.EngineHeapPops }},
	{"engine.heap_pushes", func(c *Counters) *int64 { return &c.EngineHeapPushes }},
	{"engine.heap_sift_swaps", func(c *Counters) *int64 { return &c.EngineHeapSiftSwaps }},
	{"fault.injections", func(c *Counters) *int64 { return &c.FaultInjections }},
	{"fault.retargets", func(c *Counters) *int64 { return &c.FaultRetargets }},
	{"ips.attempts_scanned", func(c *Counters) *int64 { return &c.IPSAttemptsScanned }},
	{"ips.ticks", func(c *Counters) *int64 { return &c.IPSTicks }},
	{"jt.attempts_sorted", func(c *Counters) *int64 { return &c.JTAttemptsSorted }},
	{"jt.pairs_scanned", func(c *Counters) *int64 { return &c.JTPairsScanned }},
	{"jt.pressure_probes", func(c *Counters) *int64 { return &c.JTPressureProbes }},
	{"jt.schedule_calls", func(c *Counters) *int64 { return &c.JTScheduleCalls }},
	{"jt.schedule_rounds", func(c *Counters) *int64 { return &c.JTScheduleRounds }},
	{"jt.speculation_scans", func(c *Counters) *int64 { return &c.JTSpeculationScans }},
	{"p1.candidates_evaluated", func(c *Counters) *int64 { return &c.P1CandidatesEvaluated }},
	{"p1.estimates", func(c *Counters) *int64 { return &c.P1Estimates }},
	{"p1.placements", func(c *Counters) *int64 { return &c.P1Placements }},
	{"p1.profile_entries_scanned", func(c *Counters) *int64 { return &c.P1ProfileEntriesScanned }},
	{"p1.training_runs", func(c *Counters) *int64 { return &c.P1TrainingRuns }},
}

// CounterNames returns every counter's exported name, in output order.
func CounterNames() []string {
	names := make([]string, len(counterDefs))
	for i, d := range counterDefs {
		names[i] = d.name
	}
	return names
}

// Each calls f for every counter in name order, including zeros — a
// stable key set keeps downstream snapshots byte-comparable.
func (c *Counters) Each(f func(name string, v int64)) {
	for _, d := range counterDefs {
		f(d.name, *d.get(c))
	}
}

// EachDelta calls f with every counter's position in CounterNames and
// its value in c minus its value in prev.
func (c *Counters) EachDelta(prev *Counters, f func(i int, delta int64)) {
	for i, d := range counterDefs {
		f(i, *d.get(c)-*d.get(prev))
	}
}

// AddFrom accumulates other into c, fieldwise.
func (c *Counters) AddFrom(other *Counters) {
	for _, d := range counterDefs {
		*d.get(c) += *d.get(other)
	}
}

// Map renders the counters as a name→value map (all names present).
func (c *Counters) Map() map[string]int64 {
	m := make(map[string]int64, len(counterDefs))
	c.Each(func(name string, v int64) { m[name] = v })
	return m
}

// span is one node of the wall-time attribution tree. Identity is the
// (name, parent) path: the same subsystem entered under two different
// parents yields two nodes.
type span struct {
	name     string
	parent   *span
	children map[string]*span
	count    int64
	total    time.Duration
	started  time.Time
}

func (sp *span) child(name string) *span {
	if c, ok := sp.children[name]; ok {
		return c
	}
	c := &span{name: name, parent: sp}
	if sp.children == nil {
		sp.children = make(map[string]*span)
	}
	sp.children[name] = c
	return c
}

// Stats is one run's performance attribution: the counter block plus the
// span tree. It is single-goroutine, like the simulation stack; runs that
// execute concurrently each get their own Stats and fold afterwards.
type Stats struct {
	// C is the cost-counter block; instrumented code adds to its fields
	// directly (after a nil check on the *Stats).
	C Counters

	root *span
	open *span
	now  func() time.Time // injectable for tests
}

// New returns an empty Stats ready to record.
func New() *Stats {
	s := &Stats{root: &span{name: "root"}, now: time.Now}
	s.open = s.root
	return s
}

// Enabled reports whether the receiver records anything (i.e. is
// non-nil); instrumented code may branch on it before batch updates.
func (s *Stats) Enabled() bool { return s != nil }

// Enter opens a wall-time span named name under the currently open span.
// Every Enter must be paired with an Exit; the warm path (span already
// seen under this parent) does not allocate. A nil receiver is a no-op.
func (s *Stats) Enter(name string) {
	if s == nil {
		return
	}
	sp := s.open.child(name)
	sp.started = s.now()
	s.open = sp
}

// Exit closes the innermost open span, accumulating its wall time. Exit
// without a matching Enter is a no-op. A nil receiver is a no-op.
func (s *Stats) Exit() {
	if s == nil || s.open == s.root {
		return
	}
	sp := s.open
	sp.count++
	sp.total += s.now().Sub(sp.started)
	s.open = sp.parent
}

// Merge folds another run's Stats into s: counters sum, and span trees
// union by path (counts and wall times sum). A nil receiver or argument
// is a no-op.
func (s *Stats) Merge(other *Stats) {
	if s == nil || other == nil {
		return
	}
	s.C.AddFrom(&other.C)
	mergeSpan(s.root, other.root)
}

func mergeSpan(dst, src *span) {
	dst.count += src.count
	dst.total += src.total
	for name, c := range src.children {
		mergeSpan(dst.child(name), c)
	}
}

// SpanSnapshot is an exported view of one span-tree node. WallSeconds is
// host time and therefore not deterministic; consumers that byte-compare
// reports must exclude it (see Snapshot.Counters vs Snapshot.Spans).
type SpanSnapshot struct {
	Name        string         `json:"name"`
	Count       int64          `json:"count"`
	WallSeconds float64        `json:"wall_seconds"`
	Children    []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot is a point-in-time view of a Stats: the deterministic counter
// map and the (wall-clock, non-deterministic) span tree. Counters marshal
// with sorted keys, so their JSON encoding is byte-stable.
type Snapshot struct {
	Counters map[string]int64 `json:"counters"`
	Spans    []SpanSnapshot   `json:"spans,omitempty"`
}

// Snapshot summarizes the Stats. A nil receiver yields a zero Snapshot.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		Counters: s.C.Map(),
		Spans:    snapshotChildren(s.root),
	}
}

func snapshotChildren(sp *span) []SpanSnapshot {
	if len(sp.children) == 0 {
		return nil
	}
	names := make([]string, 0, len(sp.children))
	for name := range sp.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SpanSnapshot, 0, len(names))
	for _, name := range names {
		c := sp.children[name]
		out = append(out, SpanSnapshot{
			Name:        c.name,
			Count:       c.count,
			WallSeconds: c.total.Seconds(),
			Children:    snapshotChildren(c),
		})
	}
	return out
}

// Telescopes verifies the span-tree invariant on a snapshot subtree: the
// sum of every node's children never exceeds the node's own wall time
// (within eps seconds of clock slack). It returns the first violating
// span name, or "" when the invariant holds.
func Telescopes(spans []SpanSnapshot, eps float64) string {
	for _, sp := range spans {
		sum := 0.0
		for _, c := range sp.Children {
			sum += c.WallSeconds
		}
		if sum > sp.WallSeconds+eps {
			return sp.Name
		}
		if v := Telescopes(sp.Children, eps); v != "" {
			return v
		}
	}
	return ""
}

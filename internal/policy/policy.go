// Package policy names the pluggable scheduling policies of the
// HybridMR stack. The paper's contribution is one specific policy per
// seam — Phase I profiling placement (Algorithm 2), the DRM's
// deferral-based balancing, the IPS's escalating arbitration (Algorithm
// 3) and the Fair scheduler with median-speed speculation on Phase II
// slots — but each seam is a design axis, and naming the alternatives
// in one registry is what lets the policy-search harness sweep them.
//
// Each seam's registry is one table from name to the value its
// controller consumes: p1 maps to a placer constructor, drm to the DRM's
// deferral switch, ips to the IPS's relocation threshold and p2 to a
// slot scheduler. Adding a policy is adding a row. Every seam has a
// named default registered under a paper-* name that reconstructs the
// hard-coded controller byte-for-byte: selecting the default set must
// not change a single scheduling decision (CI compares fidelity output
// against a pre-refactor golden, ci/golden/, to prove it). Alternatives
// are drawn from the paper's own baselines (random/static placement),
// its ablations (proportional memory split), and related work (the
// job-driven Phase II discipline of Lee & Lin, "Hybrid Job-driven
// Scheduling for Virtual MapReduce Clusters").
package policy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mapred"
	"repro/internal/profiler"
)

// Phase1Env is the deployment context a Phase I placer is built from:
// the trained profiler and the partition sizes the estimates scale to.
type Phase1Env struct {
	// Profiler supplies Algorithm 1 JCT estimates.
	Profiler *profiler.Profiler
	// NativeNodes and VirtualNodes are the partition sizes.
	NativeNodes  int
	VirtualNodes int
	// Seed parameterizes randomized placers.
	Seed int64
}

// DRMParams are the Dynamic Resource Manager's balancing knobs.
type DRMParams struct {
	// Deferral selects the paper's memory discipline: when resident
	// demands overflow a container, swap out the least-progressed
	// attempts until space frees up. False selects the static-split
	// alternative — every cap scales proportionally and all tasks page.
	Deferral bool
}

// table is one seam's registry: the name each policy is selected by,
// mapped to the value its controller consumes.
type table[V any] struct {
	// key is the seam's -policy key, which names it in errors.
	key string
	// def is the paper default, taken for an empty name.
	def  string
	rows map[string]V
}

// The four seam registries. A Phase I row is a constructor, not a
// placer, so resolved sets never share placer state; its overhead
// argument is the swept p1.overhead (zero keeps the placer's default).
var (
	phase1Table = table[func(Phase1Env, float64) Placer]{"p1", "paper-p1", map[string]func(Phase1Env, float64) Placer{
		// Algorithm 2, the paper's profiling placer.
		"paper-p1": func(env Phase1Env, overhead float64) Placer {
			return &ProfilingPlacer{
				Profiler:          env.Profiler,
				NativeNodes:       env.NativeNodes,
				VirtualNodes:      env.VirtualNodes,
				OverheadThreshold: overhead,
			}
		},
		// The FCFS baseline of Figure 8(a): a seeded coin flip between
		// the partitions, no profiling.
		"random-p1": func(env Phase1Env, _ float64) Placer { return NewRandomPlacer(env.Seed) },
		// The native-only and virtual-only design points of Figure 9.
		"static-native":  func(Phase1Env, float64) Placer { return StaticPlacer(PlacedNative) },
		"static-virtual": func(Phase1Env, float64) Placer { return StaticPlacer(PlacedVirtual) },
	}}
	drmTable = table[DRMParams]{"drm", "paper-drm", map[string]DRMParams{
		// The paper's deferral-based balancer.
		"paper-drm": {Deferral: true},
		// Memory pressure shared proportionally instead of deferring the
		// tail: the deferral ablation's alternative.
		"static-split": {Deferral: false},
	}}
	// An ips row is the progress below which the Arbiter relocates an
	// interferer; attempts above it are throttled in place, since
	// relocation restarts them from scratch.
	ipsTable = table[float64]{"ips", "paper-ips", map[string]float64{
		// Algorithm 3's escalation ladder.
		"paper-ips": 0.6,
		// Never relocate: every interferer is throttled in place, trading
		// batch progress for zero wasted restart work. The escalation
		// ladder above throttling is unchanged.
		"throttle-first": 0,
	}}
	phase2Table = table[mapred.Scheduler]{"p2", "paper-p2", map[string]mapred.Scheduler{
		// The testbed's Fair scheduler with median-speed speculation.
		"paper-p2": mapred.Fair{},
		// Jobs strictly in submission order: the plain-Hadoop baseline.
		"fifo-p2": mapred.FIFO{},
		// Whichever job has a node-local map for the requesting tracker,
		// trading fairness for data-local reads.
		"locality-p2": mapred.LocalityGreedy{},
		// The job closest to completion first, after the job-driven slot
		// assignment of Lee & Lin: draining the smallest remainder frees
		// its slots (and its memory footprint) for the jobs behind it.
		"jobdriven-p2": mapred.JobDriven{},
	}}
)

// names lists the registered names in sorted order.
func (t table[V]) names() []string {
	out := make([]string, 0, len(t.rows))
	for k := range t.rows {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// name returns the selected name, the paper default for the empty one.
func (t table[V]) name(n string) string {
	if n == "" {
		return t.def
	}
	return n
}

// lookup returns the row a name selects; an unknown name errors with
// the registered alternatives.
func (t table[V]) lookup(n string) (V, error) {
	v, ok := t.rows[t.name(n)]
	if !ok {
		return v, fmt.Errorf("policy: unknown %s policy %q (registered: %s)",
			t.key, n, strings.Join(t.names(), ", "))
	}
	return v, nil
}

// Phase1Names lists the registered Phase I policies.
func Phase1Names() []string { return phase1Table.names() }

// DRMNames lists the registered DRM policies.
func DRMNames() []string { return drmTable.names() }

// IPSNames lists the registered IPS policies.
func IPSNames() []string { return ipsTable.names() }

// Phase2Names lists the registered Phase II policies.
func Phase2Names() []string { return phase2Table.names() }

// Package policy names and constructs the pluggable scheduling policies
// of the HybridMR stack. The paper's contribution is one specific policy
// per seam — Phase I profiling placement (Algorithm 2), the DRM's
// deferral-based balancing, the IPS's escalating arbitration (Algorithm
// 3) and the Fair scheduler with median-speed speculation on Phase II
// slots — but each seam is a design axis, and encoding the alternatives
// behind a common registry is what lets the policy-search harness sweep
// them.
//
// Every seam has a named default registered under a paper-* name that
// reconstructs the hard-coded controller byte-for-byte: selecting the
// default set must not change a single scheduling decision (the CI
// policy-gate compares fidelity output against a pre-refactor golden to
// prove it). Alternatives are drawn from the paper's own baselines
// (random/static placement), its ablations (proportional memory split),
// and related work (the job-driven Phase II discipline of Lee & Lin,
// "Hybrid Job-driven Scheduling for Virtual MapReduce Clusters").
package policy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mapred"
	"repro/internal/profiler"
)

// Phase1Env is the deployment context a Phase I policy builds its Placer
// from: the trained profiler and the partition sizes the estimates
// scale to.
type Phase1Env struct {
	// Profiler supplies Algorithm 1 JCT estimates.
	Profiler *profiler.Profiler
	// NativeNodes and VirtualNodes are the partition sizes.
	NativeNodes  int
	VirtualNodes int
	// Seed parameterizes randomized placers.
	Seed int64
}

// Phase1Policy constructs a Phase I placer for a deployment.
type Phase1Policy interface {
	// Name is the registry name.
	Name() string
	// NewPlacer builds the placer.
	NewPlacer(env Phase1Env) Placer
}

// PaperPhase1 is Algorithm 2, the paper's profiling placer
// ("paper-p1"). Overhead, when positive, replaces the placer's 0.25
// virtual-overhead tolerance — the knob the policy search sweeps
// ("p1.overhead").
type PaperPhase1 struct{ Overhead float64 }

// Name returns "paper-p1".
func (PaperPhase1) Name() string { return "paper-p1" }

// NewPlacer builds the ProfilingPlacer.
func (p PaperPhase1) NewPlacer(env Phase1Env) Placer {
	return &ProfilingPlacer{
		Profiler:          env.Profiler,
		NativeNodes:       env.NativeNodes,
		VirtualNodes:      env.VirtualNodes,
		OverheadThreshold: p.Overhead,
	}
}

// RandomPhase1 is the FCFS baseline of Figure 8(a) ("random-p1"): a
// seeded coin flip between the partitions, no profiling.
type RandomPhase1 struct{}

// Name returns "random-p1".
func (RandomPhase1) Name() string { return "random-p1" }

// NewPlacer builds the seeded coin placer.
func (RandomPhase1) NewPlacer(env Phase1Env) Placer { return NewRandomPlacer(env.Seed) }

// StaticPhase1 always answers one partition — the native-only and
// virtual-only design points of Figure 9 ("static-native",
// "static-virtual").
type StaticPhase1 struct{ Target Placement }

// Name returns "static-native" or "static-virtual".
func (s StaticPhase1) Name() string {
	if s.Target == PlacedNative {
		return "static-native"
	}
	return "static-virtual"
}

// NewPlacer builds the fixed placer.
func (s StaticPhase1) NewPlacer(Phase1Env) Placer { return StaticPlacer(s.Target) }

// DRMParams are the Dynamic Resource Manager's balancing knobs.
type DRMParams struct {
	// Deferral selects the paper's memory discipline: when resident
	// demands overflow a container, swap out the least-progressed
	// attempts until space frees up. False selects the static-split
	// alternative — every cap scales proportionally and all tasks page.
	Deferral bool
	// HogTrimAbove and HogTrimTo bound rate-cap hogging: a cap above
	// demand×HogTrimAbove is trimmed to demand×HogTrimTo so the
	// contention detector's headroom means something next epoch.
	HogTrimAbove float64
	HogTrimTo    float64
}

// DRMPolicy parameterizes the DRM's Performance Balancer.
type DRMPolicy interface {
	// Name is the registry name.
	Name() string
	// Params returns the balancing knobs.
	Params() DRMParams
}

// PaperDRM is the paper's deferral-based balancer ("paper-drm").
type PaperDRM struct{}

// Name returns "paper-drm".
func (PaperDRM) Name() string { return "paper-drm" }

// Params returns the paper's knobs.
func (PaperDRM) Params() DRMParams {
	return DRMParams{Deferral: true, HogTrimAbove: 1.5, HogTrimTo: 1.2}
}

// StaticSplitDRM shares memory pressure proportionally instead of
// deferring the tail ("static-split") — the deferral ablation's
// alternative, promoted to a first-class policy.
type StaticSplitDRM struct{}

// Name returns "static-split".
func (StaticSplitDRM) Name() string { return "static-split" }

// Params returns the proportional-split knobs.
func (StaticSplitDRM) Params() DRMParams {
	return DRMParams{Deferral: false, HogTrimAbove: 1.5, HogTrimTo: 1.2}
}

// IPSParams are the Interference Prevention System's arbitration knobs.
type IPSParams struct {
	// PauseStreak is the violating-epoch streak before the Arbiter
	// escalates to pausing a batch VM; twice the streak live-migrates.
	PauseStreak int
	// MaxRelocationsPerEpoch bounds evictions per service per epoch.
	MaxRelocationsPerEpoch int
	// RelocateBelowProgress relocates only attempts below this progress
	// (restarting nearly-done work wastes it); attempts above are
	// throttled instead. Zero never relocates.
	RelocateBelowProgress float64
	// ThrottleFactor scales an interferer's bottleneck cap when it is
	// throttled (0.5 halves it).
	ThrottleFactor float64
}

// IPSPolicy parameterizes the IPS Arbiter.
type IPSPolicy interface {
	// Name is the registry name.
	Name() string
	// Params returns the arbitration knobs.
	Params() IPSParams
}

// PaperIPS is Algorithm 3's escalation ladder ("paper-ips").
type PaperIPS struct{}

// Name returns "paper-ips".
func (PaperIPS) Name() string { return "paper-ips" }

// Params returns the paper's knobs.
func (PaperIPS) Params() IPSParams {
	return IPSParams{
		PauseStreak:            3,
		MaxRelocationsPerEpoch: 2,
		RelocateBelowProgress:  0.6,
		ThrottleFactor:         0.5,
	}
}

// ThrottleFirstIPS never relocates ("throttle-first"): every interferer
// is throttled in place, trading batch progress for zero wasted restart
// work. The escalation ladder above throttling is unchanged.
type ThrottleFirstIPS struct{}

// Name returns "throttle-first".
func (ThrottleFirstIPS) Name() string { return "throttle-first" }

// Params returns the throttle-only knobs.
func (ThrottleFirstIPS) Params() IPSParams {
	return IPSParams{
		PauseStreak:            3,
		MaxRelocationsPerEpoch: 2,
		RelocateBelowProgress:  0,
		ThrottleFactor:         0.5,
	}
}

// SpecParams are the Phase II speculation knobs, mapped onto the
// framework's straggler detector.
type SpecParams struct {
	// Slowdown is the fraction of the median attempt speed below which
	// an attempt counts as a straggler (0 takes the default 0.5).
	Slowdown float64
}

// Phase2Policy selects the Phase II slot-assignment discipline and its
// speculation behaviour.
type Phase2Policy interface {
	// Name is the registry name.
	Name() string
	// NewScheduler builds the slot scheduler.
	NewScheduler() mapred.Scheduler
	// Speculation returns the straggler-detector knobs.
	Speculation() SpecParams
}

// PaperPhase2 is the testbed's Fair scheduler with median-speed
// speculation ("paper-p2").
type PaperPhase2 struct{}

// Name returns "paper-p2".
func (PaperPhase2) Name() string { return "paper-p2" }

// NewScheduler builds the Fair scheduler.
func (PaperPhase2) NewScheduler() mapred.Scheduler { return mapred.Fair{} }

// Speculation returns the paper's speculation knobs.
func (PaperPhase2) Speculation() SpecParams { return SpecParams{} }

// FIFOPhase2 serves jobs strictly in submission order ("fifo-p2") — the
// plain-Hadoop baseline discipline.
type FIFOPhase2 struct{}

// Name returns "fifo-p2".
func (FIFOPhase2) Name() string { return "fifo-p2" }

// NewScheduler builds the FIFO scheduler.
func (FIFOPhase2) NewScheduler() mapred.Scheduler { return mapred.FIFO{} }

// Speculation returns default speculation.
func (FIFOPhase2) Speculation() SpecParams { return SpecParams{} }

// LocalityPhase2 serves whichever job has a node-local map for the
// requesting tracker ("locality-p2"), trading fairness for data-local
// reads.
type LocalityPhase2 struct{}

// Name returns "locality-p2".
func (LocalityPhase2) Name() string { return "locality-p2" }

// NewScheduler builds the locality-greedy scheduler.
func (LocalityPhase2) NewScheduler() mapred.Scheduler { return mapred.LocalityGreedy{} }

// Speculation returns default speculation.
func (LocalityPhase2) Speculation() SpecParams { return SpecParams{} }

// JobDrivenPhase2 serves the job closest to completion first
// ("jobdriven-p2"), after the job-driven slot assignment of Lee & Lin,
// "Hybrid Job-driven Scheduling for Virtual MapReduce Clusters":
// draining the smallest remainder frees its slots (and its memory
// footprint) for the jobs behind it.
type JobDrivenPhase2 struct{}

// Name returns "jobdriven-p2".
func (JobDrivenPhase2) Name() string { return "jobdriven-p2" }

// NewScheduler builds the job-driven scheduler.
func (JobDrivenPhase2) NewScheduler() mapred.Scheduler { return mapred.JobDriven{} }

// Speculation returns default speculation.
func (JobDrivenPhase2) Speculation() SpecParams { return SpecParams{} }

// The four seam registries. Constructors, not values, so resolved sets
// never share placer state.
var (
	phase1Reg = map[string]func() Phase1Policy{
		"paper-p1":       func() Phase1Policy { return PaperPhase1{} },
		"random-p1":      func() Phase1Policy { return RandomPhase1{} },
		"static-native":  func() Phase1Policy { return StaticPhase1{Target: PlacedNative} },
		"static-virtual": func() Phase1Policy { return StaticPhase1{Target: PlacedVirtual} },
	}
	drmReg = map[string]func() DRMPolicy{
		"paper-drm":    func() DRMPolicy { return PaperDRM{} },
		"static-split": func() DRMPolicy { return StaticSplitDRM{} },
	}
	ipsReg = map[string]func() IPSPolicy{
		"paper-ips":      func() IPSPolicy { return PaperIPS{} },
		"throttle-first": func() IPSPolicy { return ThrottleFirstIPS{} },
	}
	phase2Reg = map[string]func() Phase2Policy{
		"paper-p2":     func() Phase2Policy { return PaperPhase2{} },
		"fifo-p2":      func() Phase2Policy { return FIFOPhase2{} },
		"locality-p2":  func() Phase2Policy { return LocalityPhase2{} },
		"jobdriven-p2": func() Phase2Policy { return JobDrivenPhase2{} },
	}
)

func sortedKeys[T any](m map[string]func() T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Phase1Names lists the registered Phase I policies.
func Phase1Names() []string { return sortedKeys(phase1Reg) }

// DRMNames lists the registered DRM policies.
func DRMNames() []string { return sortedKeys(drmReg) }

// IPSNames lists the registered IPS policies.
func IPSNames() []string { return sortedKeys(ipsReg) }

// Phase2Names lists the registered Phase II policies.
func Phase2Names() []string { return sortedKeys(phase2Reg) }

// NewPhase1 constructs a registered Phase I policy by name; the empty
// name takes the paper default.
func NewPhase1(name string) (Phase1Policy, error) {
	if name == "" {
		name = "paper-p1"
	}
	mk, ok := phase1Reg[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown p1 policy %q (registered: %s)",
			name, strings.Join(Phase1Names(), ", "))
	}
	return mk(), nil
}

// NewDRM constructs a registered DRM policy by name; the empty name
// takes the paper default.
func NewDRM(name string) (DRMPolicy, error) {
	if name == "" {
		name = "paper-drm"
	}
	mk, ok := drmReg[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown drm policy %q (registered: %s)",
			name, strings.Join(DRMNames(), ", "))
	}
	return mk(), nil
}

// NewIPS constructs a registered IPS policy by name; the empty name
// takes the paper default.
func NewIPS(name string) (IPSPolicy, error) {
	if name == "" {
		name = "paper-ips"
	}
	mk, ok := ipsReg[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown ips policy %q (registered: %s)",
			name, strings.Join(IPSNames(), ", "))
	}
	return mk(), nil
}

// NewPhase2 constructs a registered Phase II policy by name; the empty
// name takes the paper default.
func NewPhase2(name string) (Phase2Policy, error) {
	if name == "" {
		name = "paper-p2"
	}
	mk, ok := phase2Reg[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown p2 policy %q (registered: %s)",
			name, strings.Join(Phase2Names(), ", "))
	}
	return mk(), nil
}

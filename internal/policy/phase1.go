package policy

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/audit"
	"repro/internal/mapred"
	"repro/internal/profiler"
)

// Placement says which partition of the hybrid cluster a job runs on.
type Placement int

// Placements.
const (
	PlacedNative Placement = iota + 1
	PlacedVirtual
)

// String names the placement.
func (p Placement) String() string {
	if p == PlacedNative {
		return "native"
	}
	return "virtual"
}

// Placer decides the initial placement of a batch job (Phase I).
type Placer interface {
	// Place returns where the job should start, a short human-readable
	// justification the System records in the trace and the audit log,
	// and the candidates the placer actually weighed with their scores.
	// Only estimates the placer computes anyway appear as candidates:
	// explaining a decision must never add profiler work (and thus
	// training simulations) that an unaudited run would not do.
	// desiredJCT of zero means the submitter expressed no deadline.
	Place(spec mapred.JobSpec, desiredJCT time.Duration) (Placement, string, []audit.Candidate, error)
}

// ProfilingPlacer is HybridMR's Phase I scheduler (Algorithm 2): profile
// the job, estimate its virtual-cluster completion time, and keep it on
// the virtual cluster only when that estimate meets the job's desired
// completion time (or, with no deadline, when the virtualization overhead
// versus native execution is acceptable).
type ProfilingPlacer struct {
	// Profiler supplies Algorithm 1 estimates.
	Profiler *profiler.Profiler
	// NativeNodes and VirtualNodes are the sizes of the two partitions
	// the estimates are scaled to.
	NativeNodes  int
	VirtualNodes int
	// OverheadThreshold is the acceptable virtual/native JCT inflation
	// when no deadline is given (default 0.25).
	OverheadThreshold float64
}

var _ Placer = (*ProfilingPlacer)(nil)

// Place implements Algorithm 2 for batch jobs and reports the estimates
// it weighed. Candidate scores are estimated JCT seconds; deadline
// placements only estimate the virtual partition (Algorithm 2 never
// profiles native execution in that mode), so the native candidate then
// carries no score.
func (p *ProfilingPlacer) Place(spec mapred.JobSpec, desiredJCT time.Duration) (Placement, string, []audit.Candidate, error) {
	if p.Profiler == nil {
		return 0, "", nil, fmt.Errorf("policy: ProfilingPlacer has no profiler")
	}
	if p.VirtualNodes <= 0 {
		return PlacedNative, "no virtual partition", nil, nil
	}
	if p.NativeNodes <= 0 {
		return PlacedVirtual, "no native partition", nil, nil
	}
	estVirtual, err := p.Profiler.EstimateJCT(spec, profiler.Virtual, p.VirtualNodes)
	if err != nil {
		return 0, "", nil, fmt.Errorf("policy: estimate virtual JCT of %s: %w", spec.Name, err)
	}
	if desiredJCT > 0 {
		virtualWins := estVirtual < desiredJCT.Seconds()
		cands := []audit.Candidate{
			{Name: "virtual", Score: estVirtual, Chosen: virtualWins, Note: "estimated JCT (s) vs deadline"},
			{Name: "native", Chosen: !virtualWins, Note: "deadline fallback, not estimated"},
		}
		if !virtualWins {
			return PlacedNative,
				fmt.Sprintf("virtual estimate %.0fs misses %.0fs deadline", estVirtual, desiredJCT.Seconds()), cands, nil
		}
		return PlacedVirtual,
			fmt.Sprintf("virtual estimate %.0fs meets %.0fs deadline", estVirtual, desiredJCT.Seconds()), cands, nil
	}
	estNative, err := p.Profiler.EstimateJCT(spec, profiler.Native, p.NativeNodes)
	if err != nil {
		return 0, "", nil, fmt.Errorf("policy: estimate native JCT of %s: %w", spec.Name, err)
	}
	threshold := p.OverheadThreshold
	if threshold <= 0 {
		threshold = 0.25
	}
	nativeWins := estNative > 0 && estVirtual/estNative-1 > threshold
	cands := []audit.Candidate{
		{Name: "native", Score: estNative, Chosen: nativeWins, Note: "estimated JCT (s)"},
		{Name: "virtual", Score: estVirtual, Chosen: !nativeWins, Note: "estimated JCT (s)"},
	}
	if nativeWins {
		return PlacedNative,
			fmt.Sprintf("virtual overhead %.0f%% exceeds %.0f%% threshold",
				(estVirtual/estNative-1)*100, threshold*100), cands, nil
	}
	return PlacedVirtual, "virtual overhead acceptable", cands, nil
}

// RandomPlacer is the paper's baseline for Figure 8(a): first-come-first-
// served placement with no profiling, flipping a seeded coin between the
// partitions.
type RandomPlacer struct {
	rng *rand.Rand
}

var _ Placer = (*RandomPlacer)(nil)

// NewRandomPlacer builds the baseline placer.
func NewRandomPlacer(seed int64) *RandomPlacer {
	return &RandomPlacer{rng: rand.New(rand.NewSource(seed))}
}

// Place ignores the job entirely: it flips the seeded coin and says so.
func (r *RandomPlacer) Place(mapred.JobSpec, time.Duration) (Placement, string, []audit.Candidate, error) {
	if r.rng.Intn(2) == 0 {
		return PlacedNative, "random baseline", nil, nil
	}
	return PlacedVirtual, "random baseline", nil, nil
}

// StaticPlacer always answers the same partition; it provides the
// native-only and virtual-only design points of Figure 9.
type StaticPlacer Placement

var _ Placer = StaticPlacer(0)

// Place returns the fixed partition.
func (s StaticPlacer) Place(mapred.JobSpec, time.Duration) (Placement, string, []audit.Candidate, error) {
	return Placement(s), "static placement", nil, nil
}

package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/mapred"
)

// SuiteSpec describes a stochastic batch-workload stream: jobs drawn from
// a weighted mix arrive by a Poisson process, with input sizes jittered
// around each benchmark's nominal size. The experiments use it where the
// paper speaks of "diverse workload mix of interactive and batch
// MapReduce applications".
type SuiteSpec struct {
	// Mix is the weighted benchmark mix; weights need not sum to 1.
	Mix []WeightedJob
	// MeanInterarrival is the Poisson arrival process's mean gap
	// (default 2 minutes).
	MeanInterarrival time.Duration
	// SizeJitter scales inputs by a uniform factor in
	// [1-SizeJitter, 1+SizeJitter] (default 0.3).
	SizeJitter float64
	// Horizon stops the stream (required).
	Horizon time.Duration
	// Seed fixes the stream.
	Seed int64
}

// WeightedJob is one mix component.
type WeightedJob struct {
	// Spec is the job template.
	Spec mapred.JobSpec
	// Weight is the relative arrival share.
	Weight float64
}

// Arrival is one generated submission.
type Arrival struct {
	// At is the submission time.
	At time.Duration
	// Spec is the concrete (jittered) job.
	Spec mapred.JobSpec
}

// DefaultMix is the paper's six benchmarks in equal proportion, scaled to
// the given input size (fixed-work jobs keep their task counts).
func DefaultMix(inputMB float64) []WeightedJob {
	out := make([]WeightedJob, 0, 6)
	for _, spec := range Benchmarks() {
		if spec.FixedMapWork <= 0 {
			spec = spec.WithInputMB(inputMB)
		}
		out = append(out, WeightedJob{Spec: spec, Weight: 1})
	}
	return out
}

// GenerateSuite materializes the arrival stream.
func GenerateSuite(spec SuiteSpec) ([]Arrival, error) {
	if len(spec.Mix) == 0 {
		return nil, fmt.Errorf("workload: suite needs a non-empty mix")
	}
	if spec.Horizon <= 0 {
		return nil, fmt.Errorf("workload: suite needs a positive horizon")
	}
	mean := spec.MeanInterarrival
	if mean <= 0 {
		mean = 2 * time.Minute
	}
	jitter := spec.SizeJitter
	if jitter <= 0 {
		jitter = 0.3
	}
	if jitter > 0.9 {
		jitter = 0.9
	}
	var totalWeight float64
	for _, w := range spec.Mix {
		if w.Weight < 0 {
			return nil, fmt.Errorf("workload: negative mix weight for %s", w.Spec.Name)
		}
		totalWeight += w.Weight
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("workload: mix weights sum to zero")
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	var out []Arrival
	at := time.Duration(0)
	for {
		// Exponential interarrival gap.
		gap := time.Duration(rng.ExpFloat64() * float64(mean))
		at += gap
		if at >= spec.Horizon {
			return out, nil
		}
		pick := rng.Float64() * totalWeight
		var chosen mapred.JobSpec
		for _, w := range spec.Mix {
			pick -= w.Weight
			if pick <= 0 {
				chosen = w.Spec
				break
			}
		}
		if chosen.Name == "" {
			chosen = spec.Mix[len(spec.Mix)-1].Spec
		}
		if chosen.FixedMapWork <= 0 {
			factor := 1 + (rng.Float64()*2-1)*jitter
			size := math.Max(64, chosen.InputMB*factor)
			chosen = chosen.WithInputMB(size)
		}
		out = append(out, Arrival{At: at, Spec: chosen})
	}
}

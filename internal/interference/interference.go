// Package interference implements the statistical interference models of
// HybridMR's Phase II: predictors that learn a workload's slowdown (or an
// interactive application's latency inflation) as a function of the
// resource pressure exerted by collocated tasks and VMs. Following the
// paper (and MROrchestrator [31] / TRACON [13]), CPU interference uses a
// linear model, memory a piece-wise linear model, and I/O an exponential
// model.
package interference

import (
	"fmt"

	"repro/internal/stats"
)

// Family selects a regression model family.
type Family int

// Model families used by the paper.
const (
	LinearFamily Family = iota + 1
	PiecewiseFamily
	ExponentialFamily
)

// String names the family.
func (f Family) String() string {
	switch f {
	case LinearFamily:
		return "linear"
	case PiecewiseFamily:
		return "piecewise-linear"
	case ExponentialFamily:
		return "exponential"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

func (f Family) minSamples() int {
	if f == PiecewiseFamily {
		return 4
	}
	return 2
}

// Predictor accumulates (pressure, response) observations online and fits
// its family's regression lazily. It is the Estimator building block of
// the LRM.
type Predictor struct {
	family Family
	// xs and ys are the observation window, oldest first. Under a
	// positive MaxSamples they are windows into xbuf and ybuf, which grow
	// by doubling to at most twice the bound: the window then slides
	// forward in place, and moves back to the front when it reaches the
	// end of the arrays, so a full window observes without allocating.
	xs, ys     []float64
	xbuf, ybuf []float64
	model      stats.Model
	dirty      bool
	// MaxSamples bounds the observation window (default 512); the oldest
	// samples are discarded, so the model tracks phase changes.
	MaxSamples int
}

// NewPredictor creates an empty predictor of the family.
func NewPredictor(family Family) *Predictor {
	return &Predictor{family: family, MaxSamples: 512}
}

// Family returns the predictor's model family.
func (p *Predictor) Family() Family { return p.family }

// Len returns the number of retained observations.
func (p *Predictor) Len() int { return len(p.xs) }

// Observe appends a sample. Non-positive responses are clamped to a tiny
// positive value so the exponential family stays fittable.
func (p *Predictor) Observe(pressure, response float64) {
	if p.family == ExponentialFamily && response <= 0 {
		response = 1e-6
	}
	if p.MaxSamples > 0 {
		if len(p.xs) >= p.MaxSamples {
			p.xs, p.ys = p.xs[1:], p.ys[1:]
		}
		if len(p.xs) == cap(p.xs) {
			p.makeRoom()
		}
	}
	p.xs = append(p.xs, pressure)
	p.ys = append(p.ys, response)
	p.dirty = true
}

// makeRoom frees a slot past the end of a window that fills its backing
// arrays. A window shorter than half of them moves back to the front: an
// amortized O(1) copy, since sliding it there took more observations
// than it has samples. A longer one moves into new arrays twice its
// length plus the new slot, capped at twice MaxSamples when that still
// leaves room (the full window then slides without allocating), so a
// predictor that sees few samples never holds the full-size arrays.
func (p *Predictor) makeRoom() {
	n := len(p.xs)
	if 2*n >= cap(p.xbuf) {
		size := max(2*(n+1), 8)
		if limit := 2 * p.MaxSamples; limit > n {
			size = min(size, limit)
		}
		p.xbuf, p.ybuf = make([]float64, size), make([]float64, size)
	}
	copy(p.xbuf, p.xs)
	copy(p.ybuf, p.ys)
	p.xs, p.ys = p.xbuf[:n], p.ybuf[:n]
}

// refit rebuilds the model if observations changed.
func (p *Predictor) refit() {
	if !p.dirty || len(p.xs) < p.family.minSamples() {
		return
	}
	var (
		m   stats.Model
		err error
	)
	switch p.family {
	case PiecewiseFamily:
		m, err = stats.FitPiecewiseLinear(p.xs, p.ys)
		if err != nil {
			m, err = stats.FitLinear(p.xs, p.ys)
		}
	case ExponentialFamily:
		m, err = stats.FitExponential(p.xs, p.ys)
		if err != nil {
			m, err = stats.FitLinear(p.xs, p.ys)
		}
	default:
		m, err = stats.FitLinear(p.xs, p.ys)
	}
	if err == nil {
		p.model = m
	}
	p.dirty = false
}

// Predict estimates the response at the given pressure. The second result
// is false while the predictor has too few observations to fit.
func (p *Predictor) Predict(pressure float64) (float64, bool) {
	p.refit()
	if p.model == nil {
		return 0, false
	}
	return p.model.Predict(pressure), true
}

// Model exposes the fitted model (nil before enough data), mainly for
// logging fitted coefficients into experiment reports.
func (p *Predictor) Model() stats.Model {
	p.refit()
	return p.model
}

// Models bundles the three per-resource predictors the paper specifies
// for one workload class.
type Models struct {
	// CPU is a linear slowdown model in collocated CPU usage.
	CPU *Predictor
	// Memory is a piece-wise linear model in collocated memory usage.
	Memory *Predictor
	// IO is an exponential model in collocated I/O rate.
	IO *Predictor
}

// NewModels creates the paper's model set: linear CPU, piece-wise linear
// memory, exponential I/O. The same construction serves both MapReduce
// tasks (DRM) and interactive applications (IPS).
func NewModels() *Models {
	return &Models{
		CPU:    NewPredictor(LinearFamily),
		Memory: NewPredictor(PiecewiseFamily),
		IO:     NewPredictor(ExponentialFamily),
	}
}

package interference

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

func TestPredictorNeedsMinimumSamples(t *testing.T) {
	p := NewPredictor(LinearFamily)
	if _, ok := p.Predict(1); ok {
		t.Error("prediction available with zero samples")
	}
	p.Observe(1, 1)
	if _, ok := p.Predict(1); ok {
		t.Error("linear prediction available with one sample")
	}
	p.Observe(2, 2)
	if _, ok := p.Predict(3); !ok {
		t.Error("linear prediction unavailable with two samples")
	}
}

func TestLinearPredictorLearnsSlowdown(t *testing.T) {
	p := NewPredictor(LinearFamily)
	// Ground truth: slowdown = 1 + 0.6 * collocated CPU.
	for x := 0.0; x <= 4; x += 0.5 {
		p.Observe(x, 1+0.6*x)
	}
	got, ok := p.Predict(6)
	if !ok {
		t.Fatal("no prediction")
	}
	if math.Abs(got-4.6) > 1e-6 {
		t.Errorf("Predict(6) = %v, want 4.6", got)
	}
}

func TestExponentialPredictorLearnsIOInterference(t *testing.T) {
	p := NewPredictor(ExponentialFamily)
	// Ground truth: slowdown = exp(0.05 * ioRate), the paper's
	// exponential JCT blowup under I/O contention.
	for x := 0.0; x <= 60; x += 5 {
		p.Observe(x, math.Exp(0.05*x))
	}
	got, ok := p.Predict(80)
	if !ok {
		t.Fatal("no prediction")
	}
	want := math.Exp(0.05 * 80)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("Predict(80) = %v, want %v", got, want)
	}
}

func TestExponentialFallsBackOnLinear(t *testing.T) {
	p := NewPredictor(ExponentialFamily)
	p.Observe(1, 0) // clamped to tiny positive, not rejected
	p.Observe(2, 2)
	p.Observe(3, 3)
	if _, ok := p.Predict(4); !ok {
		t.Error("no prediction despite fallback path")
	}
}

func TestPiecewisePredictorFindsKnee(t *testing.T) {
	p := NewPredictor(PiecewiseFamily)
	// Memory interference: flat until the working set exceeds RAM, then
	// steep.
	for x := 0.0; x <= 2; x += 0.125 {
		y := 1.0
		if x > 1 {
			y = 1 + 4*(x-1)
		}
		p.Observe(x, y)
	}
	low, ok := p.Predict(0.5)
	if !ok {
		t.Fatal("no prediction")
	}
	high, _ := p.Predict(1.9)
	if math.Abs(low-1) > 0.3 {
		t.Errorf("Predict(0.5) = %v, want ~1", low)
	}
	if high < 3 {
		t.Errorf("Predict(1.9) = %v, want > 3", high)
	}
}

func TestPiecewiseFallsBackWithFewSamples(t *testing.T) {
	p := NewPredictor(PiecewiseFamily)
	p.Observe(0, 1)
	p.Observe(1, 2)
	p.Observe(2, 3)
	if _, ok := p.Predict(1.5); ok {
		t.Error("piecewise predicted below its 4-sample minimum")
	}
	p.Observe(3, 4)
	got, ok := p.Predict(4)
	if !ok {
		t.Fatal("no prediction with 4 samples")
	}
	if math.Abs(got-5) > 0.5 {
		t.Errorf("Predict(4) = %v, want ~5", got)
	}
}

func TestObservationWindowSlides(t *testing.T) {
	p := NewPredictor(LinearFamily)
	p.MaxSamples = 10
	// Old regime: flat at 1.
	for i := 0; i < 50; i++ {
		p.Observe(float64(i%5), 1)
	}
	// New regime: steep.
	for i := 0; i < 10; i++ {
		x := float64(i % 5)
		p.Observe(x, 1+2*x)
	}
	if p.Len() != 10 {
		t.Fatalf("window length = %d, want 10", p.Len())
	}
	got, ok := p.Predict(4)
	if !ok {
		t.Fatal("no prediction")
	}
	if math.Abs(got-9) > 0.5 {
		t.Errorf("Predict(4) = %v, want ~9 (new regime)", got)
	}

	// The in-place window must hold exactly what the append-and-reslice
	// window it replaced held, so every fit sees the same samples in the
	// same order and returns the same coefficients, bit for bit.
	rng := rand.New(rand.NewSource(19))
	for _, bound := range []int{1, 2, 3, 10, 512} {
		for _, family := range []Family{LinearFamily, PiecewiseFamily, ExponentialFamily} {
			p := NewPredictor(family)
			p.MaxSamples = bound
			ref := &appendWindow{family: family, bound: bound}
			fitEvery := 1 + bound/8 // piecewise fits are quadratic in the window
			for i := 1; i <= 5*bound; i++ {
				x, y := rng.Float64()*4, rng.NormFloat64()+2 // some y <= 0: the exponential clamp
				p.Observe(x, y)
				ref.observe(x, y)
				if !sameBits(p.xs, ref.xs) || !sameBits(p.ys, ref.ys) {
					t.Fatalf("MaxSamples %d %v: window after %d samples differs from append/[1:]", bound, family, i)
				}
				if i%fitEvery != 0 && i != 5*bound {
					continue
				}
				want := (&Predictor{family: family, xs: ref.xs, ys: ref.ys, dirty: true}).Model()
				if got := p.Model(); !sameBits(coefficients(got), coefficients(want)) {
					t.Fatalf("MaxSamples %d %v after %d samples: model %v, want %v", bound, family, i, got, want)
				}
			}
		}
	}
}

// appendWindow is the observation window Predictor used to keep: append
// the sample, then drop the oldest by reslicing once over the bound.
type appendWindow struct {
	family Family
	bound  int
	xs, ys []float64
}

func (w *appendWindow) observe(x, y float64) {
	if w.family == ExponentialFamily && y <= 0 {
		y = 1e-6
	}
	w.xs = append(w.xs, x)
	w.ys = append(w.ys, y)
	if w.bound > 0 && len(w.xs) > w.bound {
		w.xs = w.xs[1:]
		w.ys = w.ys[1:]
	}
}

// coefficients flattens a fitted model's parameters (nil before a fit).
func coefficients(m stats.Model) []float64 {
	switch m := m.(type) {
	case nil:
		return nil
	case *stats.Linear:
		return []float64{m.Intercept, m.Slope, m.R2}
	case *stats.Exponential:
		return []float64{m.A, m.B, m.R2}
	case *stats.PiecewiseLinear:
		return []float64{m.Break, m.Left.Intercept, m.Left.Slope, m.Left.R2,
			m.Right.Intercept, m.Right.Slope, m.Right.R2, m.R2}
	default:
		panic(fmt.Sprintf("unknown model %T", m))
	}
}

// sameBits reports whether two float slices are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFullWindowObservesWithoutAllocating pins the steady state: once a
// bounded window is full it slides and wraps inside its backing arrays.
func TestFullWindowObservesWithoutAllocating(t *testing.T) {
	for _, bound := range []int{1, 2, 3, 10, 512} {
		p := NewPredictor(LinearFamily)
		p.MaxSamples = bound
		x := 0.0
		observe := func() {
			x++
			p.Observe(x, 2*x)
		}
		for i := 0; i < 3*bound; i++ {
			observe()
		}
		// AllocsPerRun truncates its average, so measure one run of many
		// samples: enough to wrap the window around its arrays twice.
		if allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 4*bound+10; i++ {
				observe()
			}
		}); allocs != 0 {
			t.Errorf("MaxSamples %d: %v allocations over %d samples on a full window, want 0", bound, allocs, 4*bound+10)
		}
		if p.Len() != bound {
			t.Errorf("MaxSamples %d: window holds %d samples", bound, p.Len())
		}
	}
}

// BenchmarkPredictorObserve measures one sample into a full window of
// the default size, the steady state of every IPS and DRM model.
func BenchmarkPredictorObserve(b *testing.B) {
	p := NewPredictor(ExponentialFamily)
	for i := 0; i < 2*p.MaxSamples; i++ {
		p.Observe(float64(i%7), 1+float64(i%5))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(float64(i%7), 1+float64(i%5))
	}
}

func TestNoisyFitStillReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPredictor(LinearFamily)
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 8
		p.Observe(x, 1+0.5*x+rng.NormFloat64()*0.2)
	}
	got, ok := p.Predict(4)
	if !ok {
		t.Fatal("no prediction")
	}
	if math.Abs(got-3) > 0.3 {
		t.Errorf("Predict(4) = %v, want ~3", got)
	}
}

func TestNewModelsFamilies(t *testing.T) {
	m := NewModels()
	if m.CPU.Family() != LinearFamily {
		t.Errorf("CPU family = %v, want linear (paper Section III-B)", m.CPU.Family())
	}
	if m.Memory.Family() != PiecewiseFamily {
		t.Errorf("Memory family = %v, want piecewise", m.Memory.Family())
	}
	if m.IO.Family() != ExponentialFamily {
		t.Errorf("IO family = %v, want exponential", m.IO.Family())
	}
}

func TestFamilyString(t *testing.T) {
	tests := []struct {
		f    Family
		want string
	}{
		{LinearFamily, "linear"},
		{PiecewiseFamily, "piecewise-linear"},
		{ExponentialFamily, "exponential"},
		{Family(9), "family(9)"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

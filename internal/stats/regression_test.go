package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-3) > 1e-9 || math.Abs(m.Slope-2) > 1e-9 {
		t.Errorf("fit = %v, want 3 + 2x", m)
	}
	if m.R2 < 0.999 {
		t.Errorf("R2 = %v, want ~1", m.R2)
	}
	if got := m.Predict(10); math.Abs(got-23) > 1e-9 {
		t.Errorf("Predict(10) = %v, want 23", got)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 10 + 0.5*xs[i] + rng.NormFloat64()*2
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Slope-0.5) > 0.05 {
		t.Errorf("slope = %v, want ~0.5", m.Slope)
	}
	if math.Abs(m.Intercept-10) > 2 {
		t.Errorf("intercept = %v, want ~10", m.Intercept)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("one point: err = %v, want ErrInsufficientData", err)
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths: err = nil")
	}
}

func TestFitLinearDegenerateX(t *testing.T) {
	m, err := FitLinear([]float64{5, 5, 5}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict(5)-2) > 1e-9 {
		t.Errorf("degenerate fit Predict(5) = %v, want mean 2", m.Predict(5))
	}
	if m.Slope != 0 {
		t.Errorf("degenerate slope = %v, want 0", m.Slope)
	}
}

func TestFitExponentialExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 * math.Exp(0.7*x)
	}
	m, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A-2) > 1e-6 || math.Abs(m.B-0.7) > 1e-6 {
		t.Errorf("fit = %v, want 2*exp(0.7x)", m)
	}
}

func TestFitExponentialRejectsNonPositive(t *testing.T) {
	if _, err := FitExponential([]float64{1, 2}, []float64{1, 0}); err == nil {
		t.Error("y=0 accepted")
	}
	if _, err := FitExponential([]float64{1, 2}, []float64{1, -3}); err == nil {
		t.Error("y<0 accepted")
	}
}

func TestFitPiecewiseLinear(t *testing.T) {
	// True model: flat at 10 until x=5, then slope 4.
	var xs, ys []float64
	for x := 0.0; x <= 10; x++ {
		xs = append(xs, x)
		if x <= 5 {
			ys = append(ys, 10)
		} else {
			ys = append(ys, 10+4*(x-5))
		}
	}
	m, err := FitPiecewiseLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if m.Break < 4 || m.Break > 6.5 {
		t.Errorf("breakpoint = %v, want ~5", m.Break)
	}
	if math.Abs(m.Predict(2)-10) > 0.5 {
		t.Errorf("Predict(2) = %v, want ~10", m.Predict(2))
	}
	if math.Abs(m.Predict(9)-26) > 1.5 {
		t.Errorf("Predict(9) = %v, want ~26", m.Predict(9))
	}
	if m.R2 < 0.98 {
		t.Errorf("R2 = %v, want high", m.R2)
	}
}

func TestFitPiecewiseLinearTooFewPoints(t *testing.T) {
	_, err := FitPiecewiseLinear([]float64{1, 2, 3}, []float64{1, 2, 3})
	if !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
}

func TestFitInverseLinear(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 50 + 600/x
	}
	m, err := FitInverseLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A-50) > 1e-6 || math.Abs(m.B-600) > 1e-6 {
		t.Errorf("fit = %v, want 50 + 600/x", m)
	}
	if math.Abs(m.Predict(32)-(50+600.0/32)) > 1e-6 {
		t.Errorf("extrapolation wrong: %v", m.Predict(32))
	}
	if _, err := FitInverseLinear([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("x=0 accepted")
	}
}

func TestModelStrings(t *testing.T) {
	models := []Model{
		&Linear{Intercept: 1, Slope: 2},
		&Exponential{A: 1, B: 2},
		&PiecewiseLinear{Break: 5},
		&InverseLinear{A: 1, B: 2},
	}
	for _, m := range models {
		if m.String() == "" {
			t.Errorf("%T String() empty", m)
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-9 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/short inputs should yield 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {-5, 1}, {105, 10},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input must not be mutated (sorted copy).
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 4, 8})
	want := []float64{0.25, 0.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	zeros := Normalize([]float64{0, 0})
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Errorf("Normalize zeros = %v", zeros)
	}
}

// Property: a linear fit through points generated from any line recovers
// that line, and R² is 1.
func TestFitLinearRecoversLineProperty(t *testing.T) {
	f := func(a8, b8 int8) bool {
		a, b := float64(a8), float64(b8)
		xs := []float64{0, 1, 2, 3, 7, 11}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a + b*x
		}
		m, err := FitLinear(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(m.Intercept-a) < 1e-6 && math.Abs(m.Slope-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint8, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		lo, hi := float64(p1%101), float64(p2%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		return Percentile(xs, lo) <= Percentile(xs, hi)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLinearSumsMatchFitLinear checks that the running sums predict
// exactly what a fresh FitLinear over the same points does, bit for
// bit, after every point added — including the degenerate case where
// every x is equal — and that fewer than two points are refused.
func TestLinearSumsMatchFitLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		degenerate := trial%4 == 0
		var s LinearSums
		var xs, ys []float64
		if _, err := s.Predict(1); !errors.Is(err, ErrInsufficientData) {
			t.Fatalf("empty sums: err = %v, want ErrInsufficientData", err)
		}
		for i := 0; i < 300; i++ {
			x := 64 * float64(1+rng.Intn(40))
			if degenerate {
				x = 512
			}
			y := 3 + 0.02*x + rng.NormFloat64()
			s.Add(x, y)
			xs, ys = append(xs, x), append(ys, y)
			if len(xs) < 2 {
				continue
			}
			m, err := FitLinear(xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []float64{0, 100, 4096, -3.5} {
				got, err := s.Predict(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := m.Predict(q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d, %d points, x=%v: sums predict %v, FitLinear %v", trial, len(xs), q, got, want)
				}
			}
			line, _ := s.Line()
			if line.Intercept != m.Intercept || line.Slope != m.Slope {
				t.Fatalf("trial %d: Line %+v, FitLinear %+v", trial, line, *m)
			}
		}
	}
}

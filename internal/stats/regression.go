// Package stats provides the small statistical toolbox of the profiler
// and the experiment harness: ordinary least squares, piece-wise linear,
// exponential and inverse regression, plus summary statistics. Phase I's
// Algorithm 1 extrapolates with the linear, inverse and piece-wise fits.
// Linear, piece-wise linear and exponential are also the families the
// paper names for CPU, memory and I/O interference; the Figure 6(b)/(c)
// runners fit the CPU and I/O ones offline to their measured slowdowns.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a fit is requested with fewer
// points than the model has parameters.
var ErrInsufficientData = errors.New("stats: insufficient data points for fit")

// Model predicts y for a given x. All regression fits in this package
// return a Model.
type Model interface {
	Predict(x float64) float64
	// String describes the fitted form, for logs and EXPERIMENTS.md.
	String() string
}

// Linear is y = Intercept + Slope*x.
type Linear struct {
	Intercept float64
	Slope     float64
	R2        float64
}

var _ Model = (*Linear)(nil)

// Predict evaluates the line at x.
func (l *Linear) Predict(x float64) float64 { return l.Intercept + l.Slope*x }

func (l *Linear) String() string {
	return fmt.Sprintf("y = %.4g + %.4g*x (R²=%.3f)", l.Intercept, l.Slope, l.R2)
}

// FitLinear fits y = a + b*x by ordinary least squares.
func FitLinear(xs, ys []float64) (*Linear, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return nil, ErrInsufficientData
	}
	var s LinearSums
	for i := range xs {
		s.Add(xs[i], ys[i])
	}
	m, degenerate := s.line()
	if !degenerate {
		m.R2 = rSquared(xs, ys, &m)
	}
	return &m, nil
}

// LinearSums accumulates the running sums ordinary least squares needs —
// n, Σx, Σy, Σxx and Σxy — so a line over a growing sample set is refit
// in O(1) per query instead of O(n). FitLinear accumulates through it,
// so a fit from sums is bit-identical to FitLinear over the same points
// added in the same order. The zero value holds no points.
type LinearSums struct {
	n                int
	sx, sy, sxx, sxy float64
}

// Add accumulates one point.
func (s *LinearSums) Add(x, y float64) {
	s.n++
	s.sx += x
	s.sy += y
	s.sxx += x * x
	s.sxy += x * y
}

// Line returns the least-squares line through the points added, with R2
// left zero (the points themselves are not kept). It needs at least two
// points; when every x is equal it falls back to the mean of y, exactly
// as FitLinear does.
func (s *LinearSums) Line() (Linear, error) {
	if s.n < 2 {
		return Linear{}, ErrInsufficientData
	}
	m, _ := s.line()
	return m, nil
}

// Predict evaluates Line at x: FitLinear(xs, ys).Predict(x), bit for bit.
func (s *LinearSums) Predict(x float64) (float64, error) {
	m, err := s.Line()
	if err != nil {
		return 0, err
	}
	return m.Predict(x), nil
}

// line solves the normal equations; degenerate reports the all-x-equal
// fallback to the mean.
func (s *LinearSums) line() (m Linear, degenerate bool) {
	n := float64(s.n)
	den := n*s.sxx - s.sx*s.sx
	if math.Abs(den) < 1e-12 {
		// Degenerate: all x identical. Fall back to the mean.
		return Linear{Intercept: s.sy / n}, true
	}
	b := (n*s.sxy - s.sx*s.sy) / den
	return Linear{Intercept: (s.sy - b*s.sx) / n, Slope: b}, false
}

// Exponential is y = A * exp(B*x). It is fit by log-linear least squares,
// which requires strictly positive y values; the paper uses this family
// for I/O interference ("exponential increase in JCT due to increased I/O
// contention").
type Exponential struct {
	A  float64
	B  float64
	R2 float64
}

var _ Model = (*Exponential)(nil)

// Predict evaluates the exponential at x.
func (e *Exponential) Predict(x float64) float64 { return e.A * math.Exp(e.B*x) }

func (e *Exponential) String() string {
	return fmt.Sprintf("y = %.4g*exp(%.4g*x) (R²=%.3f)", e.A, e.B, e.R2)
}

// FitExponential fits y = A*exp(B*x). Points with y <= 0 are rejected.
func FitExponential(xs, ys []float64) (*Exponential, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return nil, ErrInsufficientData
	}
	logy := make([]float64, len(ys))
	for i, y := range ys {
		if y <= 0 {
			return nil, fmt.Errorf("stats: exponential fit requires y > 0, got %v", y)
		}
		logy[i] = math.Log(y)
	}
	lin, err := FitLinear(xs, logy)
	if err != nil {
		return nil, err
	}
	m := &Exponential{A: math.Exp(lin.Intercept), B: lin.Slope}
	m.R2 = rSquared(xs, ys, m)
	return m, nil
}

// PiecewiseLinear is a continuous broken-line model with one breakpoint,
// the family the paper uses for memory interference and for the reduce
// phase's dependence on cluster size.
type PiecewiseLinear struct {
	Break float64
	Left  Linear
	Right Linear
	R2    float64
}

var _ Model = (*PiecewiseLinear)(nil)

// Predict evaluates the broken line at x.
func (p *PiecewiseLinear) Predict(x float64) float64 {
	if x <= p.Break {
		return p.Left.Predict(x)
	}
	return p.Right.Predict(x)
}

func (p *PiecewiseLinear) String() string {
	return fmt.Sprintf("y = piecewise(x<=%.4g: %.4g+%.4g*x; else %.4g+%.4g*x) (R²=%.3f)",
		p.Break, p.Left.Intercept, p.Left.Slope, p.Right.Intercept, p.Right.Slope, p.R2)
}

// FitPiecewiseLinear searches every candidate breakpoint between sorted
// sample xs and fits independent segments on each side, keeping the
// breakpoint with the lowest total squared error. It needs at least four
// points (two per segment).
func FitPiecewiseLinear(xs, ys []float64) (*PiecewiseLinear, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 4 {
		return nil, ErrInsufficientData
	}
	type point struct{ x, y float64 }
	pts := make([]point, len(xs))
	for i := range xs {
		pts[i] = point{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })

	sx := make([]float64, len(pts))
	sy := make([]float64, len(pts))
	for i, p := range pts {
		sx[i], sy[i] = p.x, p.y
	}

	best := (*PiecewiseLinear)(nil)
	bestSSE := math.Inf(1)
	for split := 2; split <= len(pts)-2; split++ {
		left, err := FitLinear(sx[:split], sy[:split])
		if err != nil {
			continue
		}
		right, err := FitLinear(sx[split:], sy[split:])
		if err != nil {
			continue
		}
		sse := 0.0
		for i := 0; i < split; i++ {
			d := sy[i] - left.Predict(sx[i])
			sse += d * d
		}
		for i := split; i < len(pts); i++ {
			d := sy[i] - right.Predict(sx[i])
			sse += d * d
		}
		if sse < bestSSE {
			bestSSE = sse
			best = &PiecewiseLinear{
				Break: (sx[split-1] + sx[split]) / 2,
				Left:  *left,
				Right: *right,
			}
		}
	}
	if best == nil {
		return nil, ErrInsufficientData
	}
	best.R2 = rSquared(sx, sy, best)
	return best, nil
}

// InverseLinear is y = A + B/x, the form the paper observes for end-to-end
// and map-phase JCT versus cluster size ("inverse relation to the cluster
// size").
type InverseLinear struct {
	A  float64
	B  float64
	R2 float64
}

var _ Model = (*InverseLinear)(nil)

// Predict evaluates the model at x; x = 0 returns A alone, since the
// asymptote is the only sensible answer there.
func (m *InverseLinear) Predict(x float64) float64 {
	if x == 0 {
		return m.A
	}
	return m.A + m.B/x
}

func (m *InverseLinear) String() string {
	return fmt.Sprintf("y = %.4g + %.4g/x (R²=%.3f)", m.A, m.B, m.R2)
}

// FitInverseLinear fits y = A + B/x by substituting u = 1/x. Points with
// x = 0 are rejected.
func FitInverseLinear(xs, ys []float64) (*InverseLinear, error) {
	us := make([]float64, len(xs))
	for i, x := range xs {
		if x == 0 {
			return nil, fmt.Errorf("stats: inverse fit requires x != 0")
		}
		us[i] = 1 / x
	}
	lin, err := FitLinear(us, ys)
	if err != nil {
		return nil, err
	}
	m := &InverseLinear{A: lin.Intercept, B: lin.Slope}
	m.R2 = rSquared(xs, ys, m)
	return m, nil
}

func rSquared(xs, ys []float64, m Model) float64 {
	if len(ys) == 0 {
		return 0
	}
	mean := Mean(ys)
	var ssTot, ssRes float64
	for i := range ys {
		d := ys[i] - mean
		ssTot += d * d
		r := ys[i] - m.Predict(xs[i])
		ssRes += r * r
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

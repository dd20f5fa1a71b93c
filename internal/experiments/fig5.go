package experiments

import (
	"fmt"

	"repro/internal/mapred"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// virtualJCT runs a spec on a virtual cluster of the given VM count
// (2 VMs per PM) and returns the phase timings.
func virtualJCT(spec mapred.JobSpec, vms int, seed int64, pool *metricsPool) (testbed.JobResult, error) {
	pms := (vms + 1) / 2
	vpp := 2
	if vms == 1 {
		pms, vpp = 1, 1
	}
	rig, err := testbed.New(testbed.Options{PMs: pms, VMsPerPM: vpp, Seed: seed, Obs: pool.sinks()})
	if err != nil {
		return testbed.JobResult{}, err
	}
	res, err := rig.RunJob(spec)
	return res, err
}

// Fig5a reproduces Figure 5(a): end-to-end JCT versus cluster size
// follows an inverse relation, for Sort, PiEst and DistGrep.
func Fig5a() (*Outcome, error) {
	clusterSizes := []int{4, 8, 16, 24, 32, 40}
	specs := []mapred.JobSpec{
		workload.Sort().WithInputMB(scaledMB(8 * workload.GB)),
		scaledSpec(workload.PiEst()),
		workload.DistGrep().WithInputMB(scaledMB(8 * workload.GB)),
	}
	out := &Outcome{Table: &Table{
		ID:      "fig5a",
		Title:   "Normalized JCT vs cluster size (number of VMs)",
		Columns: []string{"VMs", "Sort", "PiEst", "DistGrep"},
	}}
	pool := newMetricsPool()
	flat, err := Map(len(specs)*len(clusterSizes), func(i int) (float64, error) {
		spec := specs[i/len(clusterSizes)]
		n := clusterSizes[i%len(clusterSizes)]
		res, err := virtualJCT(spec, n, 503, pool)
		if err != nil {
			return 0, fmt.Errorf("fig5a %s/%d: %w", spec.Name, n, err)
		}
		return res.JCT.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	series := make([][]float64, len(specs))
	for si := range specs {
		series[si] = stats.Normalize(flat[si*len(clusterSizes) : (si+1)*len(clusterSizes)])
	}
	for i, n := range clusterSizes {
		out.Table.AddCells(Str(fmt.Sprintf("%d", n)), F3(series[0][i]), F3(series[1][i]), F3(series[2][i]))
	}
	// Quantify the inverse relation with the same fit the profiler uses.
	xs := make([]float64, len(clusterSizes))
	for i, n := range clusterSizes {
		xs[i] = float64(n)
	}
	fit, err := stats.FitInverseLinear(xs, series[0])
	if err != nil {
		return nil, err
	}
	out.Notef("Sort JCT vs cluster size fits A + B/x with R²=%.3f (paper: inverse relation)", fit.R2)
	out.Scalar("inverse_r2", fit.R2)
	out.Metrics = pool.snapshot()
	return out, nil
}

// fig5Phases runs the Figure 5(b)/(c) sweep: Sort at 2-5 GB over 2-12
// VMs, returning map and reduce phase times.
func fig5Phases(pool *metricsPool) (clusterSizes []int, sizesGB []float64, mapSec, redSec map[string]float64, err error) {
	clusterSizes = []int{2, 4, 6, 8, 10, 12}
	sizesGB = []float64{2, 3, 4, 5}
	mapSec = make(map[string]float64)
	redSec = make(map[string]float64)
	results, err := Map(len(sizesGB)*len(clusterSizes), func(i int) (testbed.JobResult, error) {
		gb := sizesGB[i/len(clusterSizes)]
		n := clusterSizes[i%len(clusterSizes)]
		return virtualJCT(workload.Sort().WithInputMB(scaledMB(gb*workload.GB)), n, 509, pool)
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	for i, res := range results {
		gb := sizesGB[i/len(clusterSizes)]
		n := clusterSizes[i%len(clusterSizes)]
		key := fmt.Sprintf("%.0f/%d", gb, n)
		mapSec[key] = res.MapPhase.Seconds()
		redSec[key] = res.ReducePhase.Seconds()
	}
	return clusterSizes, sizesGB, mapSec, redSec, nil
}

// Fig5b reproduces Figure 5(b): map-phase time versus cluster size.
func Fig5b() (*Outcome, error) {
	return fig5PhaseTable("fig5b", "Sort map-phase time (s) vs cluster size", true)
}

// Fig5c reproduces Figure 5(c): reduce-phase time versus cluster size
// (piece-wise, not smoothly inverse).
func Fig5c() (*Outcome, error) {
	return fig5PhaseTable("fig5c", "Sort reduce-phase time (s) vs cluster size", false)
}

func fig5PhaseTable(id, title string, mapPhase bool) (*Outcome, error) {
	pool := newMetricsPool()
	clusterSizes, sizesGB, mapSec, redSec, err := fig5Phases(pool)
	if err != nil {
		return nil, err
	}
	src := redSec
	if mapPhase {
		src = mapSec
	}
	out := &Outcome{Table: &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"VMs", "5GB", "4GB", "3GB", "2GB"},
	}}
	for _, n := range clusterSizes {
		row := []Cell{Str(fmt.Sprintf("%d", n))}
		for i := len(sizesGB) - 1; i >= 0; i-- {
			row = append(row, F1(src[fmt.Sprintf("%.0f/%d", sizesGB[i], n)]))
		}
		out.Table.AddCells(row...)
	}
	// Characterize the 5 GB series' fit quality under the two families.
	xs := make([]float64, len(clusterSizes))
	ys := make([]float64, len(clusterSizes))
	for i, n := range clusterSizes {
		xs[i] = float64(n)
		ys[i] = src[fmt.Sprintf("%.0f/%d", sizesGB[len(sizesGB)-1], n)]
	}
	if inv, err := stats.FitInverseLinear(xs, ys); err == nil {
		out.Notef("5 GB series inverse fit R²=%.3f", inv.R2)
		out.Scalar("inverse_r2", inv.R2)
	}
	if pw, err := stats.FitPiecewiseLinear(xs, ys); err == nil {
		out.Notef("5 GB series piece-wise fit R²=%.3f (paper: map inverse, reduce piece-wise)", pw.R2)
		out.Scalar("piecewise_r2", pw.R2)
	}
	out.Metrics = pool.snapshot()
	return out, nil
}

// Fig5d reproduces Figure 5(d): JCT versus input size is close to linear
// for each cluster size C1-C16.
func Fig5d() (*Outcome, error) {
	clusterSizes := []int{1, 2, 4, 8, 16}
	sizesGB := []float64{5, 10, 15}
	out := &Outcome{Table: &Table{
		ID:      "fig5d",
		Title:   "Sort JCT (s) vs input size per virtual cluster size",
		Columns: []string{"data(GB)", "C1", "C2", "C4", "C8", "C16"},
	}}
	pool := newMetricsPool()
	flat, err := Map(len(sizesGB)*len(clusterSizes), func(i int) (float64, error) {
		gb := sizesGB[i/len(clusterSizes)]
		n := clusterSizes[i%len(clusterSizes)]
		res, err := virtualJCT(workload.Sort().WithInputMB(scaledMB(gb*workload.GB)), n, 521, pool)
		if err != nil {
			return 0, err
		}
		return res.JCT.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	jct := make(map[string]float64)
	for i, v := range flat {
		gb := sizesGB[i/len(clusterSizes)]
		n := clusterSizes[i%len(clusterSizes)]
		jct[fmt.Sprintf("%.0f/%d", gb, n)] = v
	}
	for _, gb := range sizesGB {
		row := []Cell{Str(fmt.Sprintf("%.0f", gb))}
		for _, n := range clusterSizes {
			row = append(row, F1(jct[fmt.Sprintf("%.0f/%d", gb, n)]))
		}
		out.Table.AddCells(row...)
	}
	// Linearity check on C4.
	xs := make([]float64, len(sizesGB))
	ys := make([]float64, len(sizesGB))
	for i, gb := range sizesGB {
		xs[i] = gb
		ys[i] = jct[fmt.Sprintf("%.0f/4", gb)]
	}
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		return nil, err
	}
	out.Notef("C4 series linear fit R²=%.3f (paper: JCT almost linearly proportional to data size)", fit.R2)
	out.Scalar("linear_r2", fit.R2)
	out.Metrics = pool.snapshot()
	return out, nil
}

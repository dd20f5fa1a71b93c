// Package profiler implements HybridMR's Phase I job profiling
// (Algorithm 1): a database of past job executions keyed by environment,
// cluster size and input size, trained by running jobs at small scale,
// and an estimator that extrapolates job completion time — linearly in
// data size, and per map/reduce phase in cluster size (inverse relation
// for the map phase, piece-wise for the reduce phase), exactly as the
// paper's Figure 5 analysis prescribes.
//
// The database indexes its history per cluster size, and for each size
// keeps running least-squares sums (stats.LinearSums) of JCT, map time
// and reduce time against data size. DB.Add is their only writer and
// adds each run in insertion order, so the data-size fits an estimate
// needs are answered in O(1) however long the history grows, and are
// bit-identical to refitting the stored runs.
package profiler

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/perfstat"
	"repro/internal/stats"
)

// Environment distinguishes where a profiled run executed.
type Environment int

// Environments.
const (
	Native Environment = iota + 1
	Virtual
)

// String names the environment.
func (e Environment) String() string {
	if e == Native {
		return "native"
	}
	return "virtual"
}

// RunResult is one profiled execution.
type RunResult struct {
	// JCTSec is end-to-end job completion time in seconds.
	JCTSec float64
	// MapSec and ReduceSec are the phase durations.
	MapSec    float64
	ReduceSec float64
}

// ErrNoProfile is returned when the database lacks the observations an
// estimate would need.
var ErrNoProfile = errors.New("profiler: insufficient profile data")

type entry struct {
	nodes  int
	dataMB float64
	result RunResult
}

// keyIndex accelerates per-key history queries. Every estimator path
// filters the history by either cluster size (exact int match) or data
// size (almostEqual float match) and then consumes the survivors in
// insertion order; the index stores, per key, the entry indices grouped
// by each filter value so a query touches only the group it needs. The
// groups preserve ascending entry order, so arrays rebuilt from them are
// element-for-element identical to the old full-scan filters — the
// regression fits, and therefore every estimate, are bit-exact.
type keyIndex struct {
	// byNodes maps a cluster size to the entries recorded at that size.
	byNodes map[int]*nodesGroup
	// nodesAsc is the sorted list of distinct cluster sizes seen, kept in
	// ascending order as sizes first appear.
	nodesAsc []int
	// dataVals groups entries by data size, one group per distinct value
	// (first-appearance order). almostEqual is not transitive, so a group
	// member may sit up to 1e-6 from its representative; queries widen the
	// representative check to 2e-6 and re-test members individually.
	dataVals []dataVal
}

// nodesGroup is the history at one cluster size: the ascending entry
// indices, for Lookup's exact-match scan, and the running least-squares
// sums of JCT, map time and reduce time against data size, for the
// data-size fits. The sums take the same additions in the same order a
// scan of the group would, so a fit from them is bit-identical to
// FitLinear over the group, at O(1) per estimate however long the
// history grows. DB.Add is the only writer, so they never go stale.
type nodesGroup struct {
	idxs               []int
	jct, mapT, reduceT stats.LinearSums
}

type dataVal struct {
	mb   float64
	idxs []int // ascending entry indices with almostEqual(dataMB, mb)
}

func (ki *keyIndex) add(i int, e entry) {
	g, ok := ki.byNodes[e.nodes]
	if !ok {
		pos := sort.SearchInts(ki.nodesAsc, e.nodes)
		ki.nodesAsc = append(ki.nodesAsc, 0)
		copy(ki.nodesAsc[pos+1:], ki.nodesAsc[pos:])
		ki.nodesAsc[pos] = e.nodes
		g = &nodesGroup{}
		ki.byNodes[e.nodes] = g
	}
	g.idxs = append(g.idxs, i)
	g.jct.Add(e.dataMB, e.result.JCTSec)
	g.mapT.Add(e.dataMB, e.result.MapSec)
	g.reduceT.Add(e.dataMB, e.result.ReduceSec)
	for gi := range ki.dataVals {
		if almostEqual(ki.dataVals[gi].mb, e.dataMB) {
			ki.dataVals[gi].idxs = append(ki.dataVals[gi].idxs, i)
			return
		}
	}
	ki.dataVals = append(ki.dataVals, dataVal{mb: e.dataMB, idxs: []int{i}})
}

// DB is the profile database: per (job, environment), the history of
// observed runs plus the query index over it.
type DB struct {
	entries map[string][]entry
	index   map[string]*keyIndex
	perf    *perfstat.Stats
}

// NewDB creates an empty profile database.
func NewDB() *DB {
	return &DB{
		entries: make(map[string][]entry),
		index:   make(map[string]*keyIndex),
	}
}

// dbKey names a history: "job/env". Concatenation instead of fmt keeps
// an estimate's allocations fixed (fmt's buffer pool is not).
func dbKey(job string, env Environment) string {
	return job + "/" + env.String()
}

// Add records an observation.
func (db *DB) Add(job string, env Environment, nodes int, dataMB float64, r RunResult) {
	k := dbKey(job, env)
	e := entry{nodes: nodes, dataMB: dataMB, result: r}
	ki, ok := db.index[k]
	if !ok {
		ki = &keyIndex{byNodes: make(map[int]*nodesGroup)}
		db.index[k] = ki
	}
	ki.add(len(db.entries[k]), e)
	db.entries[k] = append(db.entries[k], e)
}

// Len returns the number of observations for a job/environment.
func (db *DB) Len(job string, env Environment) int {
	return len(db.entries[dbKey(job, env)])
}

// Lookup returns an exact match if one exists. Only entries recorded at
// the requested cluster size are visited; within that group the scan
// runs in insertion order, so the match returned is the same first match
// the old full-history walk found.
func (db *DB) Lookup(job string, env Environment, nodes int, dataMB float64) (RunResult, bool) {
	k := dbKey(job, env)
	ki := db.index[k]
	if ki == nil {
		return RunResult{}, false
	}
	g := ki.byNodes[nodes]
	if g == nil {
		return RunResult{}, false
	}
	all := db.entries[k]
	for _, i := range g.idxs {
		if db.perf != nil {
			db.perf.C.P1ProfileEntriesScanned++
		}
		if almostEqual(all[i].dataMB, dataMB) {
			return all[i].result, true
		}
	}
	return RunResult{}, false
}

func almostEqual(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

// Estimate implements Algorithm 1. Resolution order:
//
//  1. exact (cluster size, data size) match;
//  2. same cluster size with other data sizes: linear extrapolation in
//     data size (Figure 5(d));
//  3. same data size with other cluster sizes: inverse-linear
//     extrapolation of the map phase and piece-wise extrapolation of the
//     reduce phase in cluster size (Figures 5(a)-(c));
//  4. both differ: data-size extrapolation at the nearest profiled
//     cluster size, rescaled by the cluster-size model.
func (db *DB) Estimate(job string, env Environment, nodes int, dataMB float64) (RunResult, error) {
	k := dbKey(job, env)
	all := db.entries[k]
	ki := db.index[k]
	if db.perf != nil {
		// P1ProfileEntriesScanned now counts the entries each resolution
		// step actually reads through the index, not a full-history pass
		// per call; an exact-match hit touches only the handful of entries
		// recorded at the requested cluster size.
		db.perf.C.P1Estimates++
	}
	if len(all) == 0 {
		return RunResult{}, fmt.Errorf("%w: no runs of %s on %s", ErrNoProfile, job, env)
	}
	if r, ok := db.Lookup(job, env, nodes, dataMB); ok {
		return r, nil
	}

	if r, err := extrapolateData(ki, nodes, dataMB); err == nil {
		return r, nil
	}
	if r, err := db.extrapolateCluster(all, ki, nodes, dataMB); err == nil {
		return r, nil
	}

	// Combined: fit each phase linearly in data size at the nearest
	// profiled cluster size n0, then carry the slope (the per-MB work
	// term) across cluster sizes by the paper's inverse model: a phase
	// is a constant plus work/n, so phase(n, d) = intercept + slope*d*n0/n.
	nearest, ok := nearestNodes(ki, nodes)
	if !ok {
		return RunResult{}, fmt.Errorf("%w: no usable runs of %s", ErrNoProfile, job)
	}
	return combinedEstimate(ki, nearest, nodes, dataMB), nil
}

// combinedEstimate is resolution step 4 at n0, which nearestNodes only
// picks when it holds at least two runs, so both fits exist.
func combinedEstimate(ki *keyIndex, n0, nodes int, dataMB float64) RunResult {
	g := ki.byNodes[n0]
	mapM, _ := g.mapT.Line()
	redM, _ := g.reduceT.Line()
	ratio := float64(n0) / float64(nodes)
	r := RunResult{
		MapSec:    mapM.Intercept + mapM.Slope*dataMB*ratio,
		ReduceSec: redM.Intercept + redM.Slope*dataMB*ratio,
	}
	r.JCTSec = r.MapSec + r.ReduceSec
	return clampResult(r)
}

// extrapolateData fits JCT (and phases) linearly against data size using
// runs at exactly the requested cluster size. The group's running sums
// answer the three fits in O(1), bit-identical to refitting its entries.
func extrapolateData(ki *keyIndex, nodes int, dataMB float64) (RunResult, error) {
	g := ki.byNodes[nodes]
	if g == nil || len(g.idxs) < 2 {
		return RunResult{}, ErrNoProfile
	}
	jct, _ := g.jct.Predict(dataMB)
	mapSec, _ := g.mapT.Predict(dataMB)
	reduceSec, _ := g.reduceT.Predict(dataMB)
	return clampResult(RunResult{
		JCTSec:    jct,
		MapSec:    mapSec,
		ReduceSec: reduceSec,
	}), nil
}

// extrapolateCluster fits the map phase as an inverse-linear function of
// cluster size and the reduce phase piece-wise, using runs at exactly the
// requested data size. Candidate entries come from the data-size groups:
// a matching entry can only live in a group whose representative is
// within 2e-6 of the query (members sit within 1e-6 of their rep), so
// only those groups' members are re-tested. The surviving indices are
// merged back into ascending order, reproducing the old scan's order.
func (db *DB) extrapolateCluster(all []entry, ki *keyIndex, nodes int, dataMB float64) (RunResult, error) {
	var idxs []int
	for _, g := range ki.dataVals {
		d := g.mb - dataMB
		if d >= 2e-6 || d <= -2e-6 {
			continue
		}
		for _, i := range g.idxs {
			if db.perf != nil {
				db.perf.C.P1ProfileEntriesScanned++
			}
			if almostEqual(all[i].dataMB, dataMB) {
				idxs = append(idxs, i)
			}
		}
	}
	sort.Ints(idxs)
	var xs, ms, rs []float64
	for _, i := range idxs {
		e := all[i]
		xs = append(xs, float64(e.nodes))
		ms = append(ms, e.result.MapSec)
		rs = append(rs, e.result.ReduceSec)
	}
	if len(xs) < 2 {
		return RunResult{}, ErrNoProfile
	}
	mapM, err := stats.FitInverseLinear(xs, ms)
	if err != nil {
		return RunResult{}, err
	}
	var reduceAt float64
	if pw, err := stats.FitPiecewiseLinear(xs, rs); err == nil {
		reduceAt = pw.Predict(float64(nodes))
	} else if inv, err := stats.FitInverseLinear(xs, rs); err == nil {
		reduceAt = inv.Predict(float64(nodes))
	} else {
		return RunResult{}, err
	}
	mapAt := mapM.Predict(float64(nodes))
	return clampResult(RunResult{
		JCTSec:    mapAt + reduceAt,
		MapSec:    mapAt,
		ReduceSec: reduceAt,
	}), nil
}

func clampResult(r RunResult) RunResult {
	if r.MapSec < 0 {
		r.MapSec = 0
	}
	if r.ReduceSec < 0 {
		r.ReduceSec = 0
	}
	if r.JCTSec < r.MapSec+r.ReduceSec {
		r.JCTSec = r.MapSec + r.ReduceSec
	}
	return r
}

func nearestNodes(ki *keyIndex, nodes int) (int, bool) {
	// Prefer cluster sizes that have at least two data points (needed
	// for data extrapolation). nodesAsc is already sorted, so walking it
	// reproduces the old sort-then-scan tie-breaking (smaller size wins
	// on equal distance) over distinct sizes instead of every entry.
	best, bestDist, found := 0, 0, false
	for _, n := range ki.nodesAsc {
		if len(ki.byNodes[n].idxs) < 2 {
			continue
		}
		if d := abs(n - nodes); !found || d < bestDist {
			best, bestDist, found = n, d, true
		}
	}
	return best, found
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Runner executes a job spec on a given environment and cluster size and
// reports phase timings. The core package provides a simulation-backed
// runner; tests may use analytic ones. The seed varies across the
// paper's "3 runs averaged" repetitions.
type Runner func(spec mapred.JobSpec, env Environment, nodes int, seed int64) (RunResult, error)

// Profiler trains and queries the profile database for Phase I.
type Profiler struct {
	// DB is the underlying profile database.
	DB *DB
	// Run executes training jobs.
	Run Runner
	// TrainNodes are the training-cluster sizes (default {4, 8}).
	TrainNodes []int
	// TrainFractions are the input-size fractions profiled per cluster
	// size (default {0.05, 0.10}).
	TrainFractions []float64
	// Repeats is how many seeded runs are averaged per point (default 3,
	// as in the paper).
	Repeats int

	perf *perfstat.Stats
}

// New creates a profiler over a fresh database. Estimates, database
// scans and training runs are counted on the handle's perf collector; a
// nil handle counts nothing.
func New(run Runner, sinks *obs.Sinks) *Profiler {
	perf := obs.Of(sinks).Perf
	db := NewDB()
	db.perf = perf
	return &Profiler{
		DB:             db,
		Run:            run,
		TrainNodes:     []int{4, 8},
		TrainFractions: []float64{0.05, 0.10},
		Repeats:        3,
		perf:           perf,
	}
}

// Train profiles the spec at small scale in the environment, filling the
// database. Already-profiled points are not re-run.
func (p *Profiler) Train(spec mapred.JobSpec, env Environment) error {
	if p.Run == nil {
		return errors.New("profiler: no runner configured")
	}
	for _, nodes := range p.TrainNodes {
		for fi, frac := range p.TrainFractions {
			var dataMB float64
			var small mapred.JobSpec
			if spec.FixedMapWork > 0 {
				// Fixed-work jobs use the task count as their "data
				// size"; keep the training counts distinct.
				tasks := maxInt(fi+1, int(float64(spec.FixedMapTasks)*frac))
				dataMB = float64(tasks)
				small = spec
				small.FixedMapTasks = tasks
			} else {
				dataMB = spec.InputMB * frac
				if dataMB < 64 {
					dataMB = 64 * float64(fi+1)
				}
				small = spec.WithInputMB(dataMB)
			}
			if _, ok := p.DB.Lookup(spec.Name, env, nodes, dataMB); ok {
				continue
			}
			avg := RunResult{}
			repeats := p.Repeats
			if repeats <= 0 {
				repeats = 1
			}
			for r := 0; r < repeats; r++ {
				if p.perf != nil {
					p.perf.C.P1TrainingRuns++
				}
				res, err := p.Run(small, env, nodes, int64(r+1))
				if err != nil {
					return fmt.Errorf("profiler: train %s on %s/%d: %w", spec.Name, env, nodes, err)
				}
				avg.JCTSec += res.JCTSec / float64(repeats)
				avg.MapSec += res.MapSec / float64(repeats)
				avg.ReduceSec += res.ReduceSec / float64(repeats)
			}
			p.DB.Add(spec.Name, env, nodes, dataMB, avg)
		}
	}
	return nil
}

// Observe records an actual production run into the profile database —
// the online-profiling extension the paper cites ([12], [33]). Later
// estimates then interpolate over real history at full scale instead of
// relying on small-cluster extrapolation alone.
func (p *Profiler) Observe(spec mapred.JobSpec, env Environment, nodes int, r RunResult) {
	dataMB := spec.InputMB
	if spec.FixedMapWork > 0 {
		dataMB = float64(spec.FixedMapTasks)
	}
	p.DB.Add(spec.Name, env, nodes, dataMB, r)
}

// EstimateJCT trains the spec if needed and estimates the completion time
// at the full input size on a cluster of the given size.
func (p *Profiler) EstimateJCT(spec mapred.JobSpec, env Environment, nodes int) (float64, error) {
	dataMB := spec.InputMB
	if spec.FixedMapWork > 0 {
		dataMB = float64(spec.FixedMapTasks)
	}
	if _, err := p.DB.Estimate(spec.Name, env, nodes, dataMB); errors.Is(err, ErrNoProfile) {
		if trainErr := p.Train(spec, env); trainErr != nil {
			return 0, trainErr
		}
	}
	r, err := p.DB.Estimate(spec.Name, env, nodes, dataMB)
	if err != nil {
		return 0, err
	}
	return r.JCTSec, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package profiler

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// scanExtrapolateData is extrapolateData as it was before the running
// sums: every call copies the group's entries into fresh slices and
// refits three regressions. It is the reference the O(1) fit must match.
func scanExtrapolateData(all []entry, ki *keyIndex, nodes int, dataMB float64) (RunResult, error) {
	var xs, jct, ms, rs []float64
	if g := ki.byNodes[nodes]; g != nil {
		for _, i := range g.idxs {
			e := all[i]
			xs = append(xs, e.dataMB)
			jct = append(jct, e.result.JCTSec)
			ms = append(ms, e.result.MapSec)
			rs = append(rs, e.result.ReduceSec)
		}
	}
	if len(xs) < 2 {
		return RunResult{}, ErrNoProfile
	}
	jctM, err := stats.FitLinear(xs, jct)
	if err != nil {
		return RunResult{}, err
	}
	mapM, err := stats.FitLinear(xs, ms)
	if err != nil {
		return RunResult{}, err
	}
	redM, err := stats.FitLinear(xs, rs)
	if err != nil {
		return RunResult{}, err
	}
	return clampResult(RunResult{
		JCTSec:    jctM.Predict(dataMB),
		MapSec:    mapM.Predict(dataMB),
		ReduceSec: redM.Predict(dataMB),
	}), nil
}

// scanCombinedEstimate is combinedEstimate as it was before the running
// sums, refitting the group at n0 on every call.
func scanCombinedEstimate(all []entry, ki *keyIndex, n0, nodes int, dataMB float64) (RunResult, error) {
	var xs, ms, rs []float64
	for _, i := range ki.byNodes[n0].idxs {
		e := all[i]
		xs = append(xs, e.dataMB)
		ms = append(ms, e.result.MapSec)
		rs = append(rs, e.result.ReduceSec)
	}
	if len(xs) < 2 {
		return RunResult{}, ErrNoProfile
	}
	mapM, err := stats.FitLinear(xs, ms)
	if err != nil {
		return RunResult{}, err
	}
	redM, err := stats.FitLinear(xs, rs)
	if err != nil {
		return RunResult{}, err
	}
	ratio := float64(n0) / float64(nodes)
	r := RunResult{
		MapSec:    mapM.Intercept + mapM.Slope*dataMB*ratio,
		ReduceSec: redM.Intercept + redM.Slope*dataMB*ratio,
	}
	r.JCTSec = r.MapSec + r.ReduceSec
	return clampResult(r), nil
}

// scanEstimate is Estimate's resolution order over the scan-and-fit
// references.
func scanEstimate(db *DB, job string, env Environment, nodes int, dataMB float64) (RunResult, error) {
	k := dbKey(job, env)
	all, ki := db.entries[k], db.index[k]
	if len(all) == 0 {
		return RunResult{}, ErrNoProfile
	}
	if r, ok := db.Lookup(job, env, nodes, dataMB); ok {
		return r, nil
	}
	if r, err := scanExtrapolateData(all, ki, nodes, dataMB); err == nil {
		return r, nil
	}
	if r, err := db.extrapolateCluster(all, ki, nodes, dataMB); err == nil {
		return r, nil
	}
	nearest, ok := nearestNodes(ki, nodes)
	if !ok {
		return RunResult{}, ErrNoProfile
	}
	return scanCombinedEstimate(all, ki, nearest, nodes, dataMB)
}

// growHistory adds n seeded observations of "Sort" on the virtual
// environment, mostly at 16 nodes and with data sizes that recur across
// cluster sizes, so every resolution step has work to do.
func growHistory(db *DB, rng *rand.Rand, n int) {
	sizes := []int{4, 8, 16, 16, 16, 32}
	for i := 0; i < n; i++ {
		nodes := sizes[rng.Intn(len(sizes))]
		data := 64 * float64(1+rng.Intn(64))
		if rng.Intn(3) == 0 {
			data += rng.Float64()
		}
		mapSec := 10 + 0.08*data/float64(nodes) + rng.NormFloat64()
		reduceSec := 20 + 0.03*data/float64(nodes) + rng.NormFloat64()
		db.Add("Sort", Virtual, nodes, data, RunResult{
			JCTSec:    mapSec + reduceSec + rng.Float64(),
			MapSec:    mapSec,
			ReduceSec: reduceSec,
		})
	}
}

// TestEstimateMatchesScanAndFit checks every estimate against the
// scan-and-fit reference, bit for bit, while the history grows to
// 10,000 entries. Queries hit exact matches, data extrapolation at
// profiled sizes, cluster extrapolation at unprofiled ones and the
// combined fallback.
func TestEstimateMatchesScanAndFit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := NewDB()
	bits := math.Float64bits
	same := func(a, b RunResult) bool {
		return bits(a.JCTSec) == bits(b.JCTSec) && bits(a.MapSec) == bits(b.MapSec) && bits(a.ReduceSec) == bits(b.ReduceSec)
	}
	queries := 0
	for len(db.entries[dbKey("Sort", Virtual)]) < 10000 {
		step := 1
		if n := len(db.entries[dbKey("Sort", Virtual)]); n >= 200 {
			step = 97
		}
		growHistory(db, rng, step)
		for _, nodes := range []int{4, 12, 16, 32, 100} {
			for _, data := range []float64{64, 1000.5, 64 * float64(1+rng.Intn(64)), rng.Float64() * 8192} {
				got, gotErr := db.Estimate("Sort", Virtual, nodes, data)
				want, wantErr := scanEstimate(db, "Sort", Virtual, nodes, data)
				if (gotErr == nil) != (wantErr == nil) || !same(got, want) {
					t.Fatalf("history %d, Estimate(%d nodes, %v MB) = %+v, %v; scan-and-fit %+v, %v",
						len(db.entries[dbKey("Sort", Virtual)]), nodes, data, got, gotErr, want, wantErr)
				}
				queries++
			}
		}
	}
	if queries < 1000 {
		t.Fatalf("only %d queries compared", queries)
	}
}

// extrapolationDB returns a database holding history runs at 16 nodes
// with distinct data sizes, so an estimate at 16 nodes for an unseen size
// misses the exact match and takes the data-extrapolation path.
func extrapolationDB(history int) *DB {
	db := NewDB()
	for i := 0; i < history; i++ {
		data := 64 + float64(i)
		db.Add("Sort", Virtual, 16, data, RunResult{JCTSec: 30 + 0.1*data, MapSec: 10 + 0.08*data, ReduceSec: 20 + 0.02*data})
	}
	return db
}

// TestEstimateAllocsFlat pins the extrapolation path's allocations
// independent of history length: the fits no longer copy the group.
func TestEstimateAllocsFlat(t *testing.T) {
	allocs := func(history int) float64 {
		db := extrapolationDB(history)
		return testing.AllocsPerRun(50, func() {
			if _, err := db.Estimate("Sort", Virtual, 16, 1e6); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Errorf("Estimate allocates %.1f times at history 100 but %.1f at 10,000", small, large)
	}
}

// BenchmarkProfilerEstimate measures one Phase I estimate on the
// data-extrapolation path at two history lengths. The fits are O(1); the
// exact-match Lookup that precedes them still scans the entries at the
// requested cluster size.
func BenchmarkProfilerEstimate(b *testing.B) {
	for _, history := range []int{100, 10000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			db := extrapolationDB(history)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Estimate("Sort", Virtual, 16, 1e6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

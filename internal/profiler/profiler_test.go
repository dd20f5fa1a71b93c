package profiler

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mapred"
)

// analyticRunner mimics a MapReduce cluster with map time proportional to
// data/nodes and a reduce phase with a floor — the shapes of Figure 5.
func analyticRunner(overhead float64) Runner {
	return func(spec mapred.JobSpec, env Environment, nodes int, seed int64) (RunResult, error) {
		data := spec.InputMB
		if spec.FixedMapWork > 0 {
			data = float64(spec.FixedMapTasks)
		}
		envFactor := 1.0
		if env == Virtual {
			envFactor = 1.2
		}
		mapSec := (10 + 0.08*data/float64(nodes)) * envFactor
		reduceSec := (20 + 0.03*data/float64(nodes)) * envFactor
		return RunResult{
			JCTSec:    (mapSec + reduceSec) * (1 + overhead),
			MapSec:    mapSec,
			ReduceSec: reduceSec,
		}, nil
	}
}

func sortSpec(mb float64) mapred.JobSpec {
	return mapred.JobSpec{
		Name:             "Sort",
		InputMB:          mb,
		Reduces:          4,
		MapStreamMBps:    50,
		MapCPUPerMB:      0.004,
		ShuffleRatio:     1,
		ReduceStreamMBps: 40,
	}
}

func TestDBExactLookup(t *testing.T) {
	db := NewDB()
	want := RunResult{JCTSec: 100, MapSec: 60, ReduceSec: 40}
	db.Add("Sort", Virtual, 8, 1024, want)
	got, ok := db.Lookup("Sort", Virtual, 8, 1024)
	if !ok || got != want {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := db.Lookup("Sort", Native, 8, 1024); ok {
		t.Error("lookup matched the wrong environment")
	}
	if _, ok := db.Lookup("Sort", Virtual, 4, 1024); ok {
		t.Error("lookup matched the wrong cluster size")
	}
	est, err := db.Estimate("Sort", Virtual, 8, 1024)
	if err != nil || est != want {
		t.Errorf("Estimate exact = %+v, %v", est, err)
	}
}

func TestEstimateEmptyDB(t *testing.T) {
	db := NewDB()
	if _, err := db.Estimate("Sort", Virtual, 8, 1024); !errors.Is(err, ErrNoProfile) {
		t.Errorf("err = %v, want ErrNoProfile", err)
	}
}

func TestDataSizeExtrapolation(t *testing.T) {
	db := NewDB()
	// Linear ground truth at 8 nodes: JCT = 50 + 0.1*MB.
	for _, mb := range []float64{512, 1024, 2048} {
		db.Add("Sort", Virtual, 8, mb, RunResult{
			JCTSec: 50 + 0.1*mb, MapSec: 30 + 0.07*mb, ReduceSec: 20 + 0.03*mb,
		})
	}
	got, err := db.Estimate("Sort", Virtual, 8, 8192)
	if err != nil {
		t.Fatal(err)
	}
	want := 50 + 0.1*8192
	if math.Abs(got.JCTSec-want) > 1 {
		t.Errorf("extrapolated JCT = %v, want %v", got.JCTSec, want)
	}
}

func TestClusterSizeExtrapolation(t *testing.T) {
	db := NewDB()
	// Map phase 600/n + 30; reduce flat-ish then floor.
	for _, n := range []int{2, 4, 6, 8, 10, 12} {
		db.Add("Sort", Virtual, n, 2048, RunResult{
			MapSec:    30 + 600/float64(n),
			ReduceSec: 40 + 120/float64(n),
			JCTSec:    70 + 720/float64(n),
		})
	}
	got, err := db.Estimate("Sort", Virtual, 24, 2048)
	if err != nil {
		t.Fatal(err)
	}
	wantMap := 30 + 600.0/24
	if math.Abs(got.MapSec-wantMap) > 3 {
		t.Errorf("map extrapolation = %v, want ~%v", got.MapSec, wantMap)
	}
	if got.JCTSec < got.MapSec+got.ReduceSec-1e-6 {
		t.Errorf("JCT %v below phase sum %v", got.JCTSec, got.MapSec+got.ReduceSec)
	}
}

func TestCombinedExtrapolation(t *testing.T) {
	db := NewDB()
	run := analyticRunner(0)
	// Profile a small grid: data series at 4 nodes, cluster series at
	// 512 MB.
	for _, mb := range []float64{512, 1024} {
		r, err := run(sortSpec(mb), Virtual, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		db.Add("Sort", Virtual, 4, mb, r)
	}
	for _, n := range []int{8, 16} {
		r, err := run(sortSpec(512), Virtual, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		db.Add("Sort", Virtual, n, 512, r)
	}
	got, err := db.Estimate("Sort", Virtual, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := run(sortSpec(4096), Virtual, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(got.JCTSec-truth.JCTSec) / truth.JCTSec
	if relErr > 0.35 {
		t.Errorf("combined extrapolation error %.0f%% (got %v, truth %v)", relErr*100, got.JCTSec, truth.JCTSec)
	}
}

func TestProfilerTrainAndEstimate(t *testing.T) {
	p := New(analyticRunner(0), nil)
	spec := sortSpec(20 * 1024)
	got, err := p.EstimateJCT(spec, Virtual, 8)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := analyticRunner(0)(spec, Virtual, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(got-truth.JCTSec) / truth.JCTSec
	if relErr > 0.25 {
		t.Errorf("profiling error %.0f%%: est %v, truth %v", relErr*100, got, truth.JCTSec)
	}
	// Training populated both cluster sizes x data fractions.
	if n := p.DB.Len("Sort", Virtual); n != 4 {
		t.Errorf("DB has %d entries, want 4", n)
	}
	// A second estimate must not re-train (DB size stable).
	if _, err := p.EstimateJCT(spec, Virtual, 8); err != nil {
		t.Fatal(err)
	}
	if n := p.DB.Len("Sort", Virtual); n != 4 {
		t.Errorf("re-estimate re-trained: %d entries", n)
	}
}

func TestProfilerDistinguishesEnvironments(t *testing.T) {
	p := New(analyticRunner(0), nil)
	spec := sortSpec(10 * 1024)
	native, err := p.EstimateJCT(spec, Native, 8)
	if err != nil {
		t.Fatal(err)
	}
	virtual, err := p.EstimateJCT(spec, Virtual, 8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := virtual / native
	if ratio < 1.1 || ratio > 1.3 {
		t.Errorf("virtual/native JCT ratio = %v, want ~1.2 (runner's env factor)", ratio)
	}
}

func TestProfilerNoRunner(t *testing.T) {
	p := New(nil, nil)
	if _, err := p.EstimateJCT(sortSpec(1024), Virtual, 8); err == nil {
		t.Error("estimate without runner succeeded")
	}
}

func TestProfilerRunnerError(t *testing.T) {
	p := New(func(mapred.JobSpec, Environment, int, int64) (RunResult, error) {
		return RunResult{}, errors.New("boom")
	}, nil)
	if _, err := p.EstimateJCT(sortSpec(1024), Virtual, 8); err == nil {
		t.Error("runner failure not propagated")
	}
}

func TestFixedWorkJobTraining(t *testing.T) {
	p := New(analyticRunner(0), nil)
	pi := mapred.JobSpec{
		Name:          "PiEst",
		Reduces:       1,
		FixedMapWork:  55,
		FixedMapTasks: 48,
	}
	if _, err := p.EstimateJCT(pi, Virtual, 8); err != nil {
		t.Fatalf("fixed-work job: %v", err)
	}
}

func TestEnvironmentString(t *testing.T) {
	if Native.String() != "native" || Virtual.String() != "virtual" {
		t.Error("Environment String() wrong")
	}
}

func TestObserveFeedsOnlineProfile(t *testing.T) {
	p := New(analyticRunner(0), nil)
	spec := sortSpec(20 * 1024)
	// Training-based estimate first.
	trained, err := p.EstimateJCT(spec, Virtual, 24)
	if err != nil {
		t.Fatal(err)
	}
	// A production run lands at a very different JCT; the exact-match
	// path must now return the observed truth.
	p.Observe(spec, Virtual, 24, RunResult{JCTSec: trained * 2, MapSec: trained, ReduceSec: trained})
	after, err := p.EstimateJCT(spec, Virtual, 24)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-trained*2) > 1e-9 {
		t.Errorf("post-observation estimate = %v, want observed %v", after, trained*2)
	}
}

func TestObserveFixedWorkKey(t *testing.T) {
	p := New(analyticRunner(0), nil)
	pi := mapred.JobSpec{Name: "PiEst", Reduces: 1, FixedMapWork: 55, FixedMapTasks: 48}
	p.Observe(pi, Native, 8, RunResult{JCTSec: 123, MapSec: 100, ReduceSec: 23})
	got, ok := p.DB.Lookup("PiEst", Native, 8, 48)
	if !ok || got.JCTSec != 123 {
		t.Errorf("fixed-work observation not keyed by task count: %+v, %v", got, ok)
	}
}

package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/sim"
)

func TestBenchmarksValidateAndMatchPaperSizes(t *testing.T) {
	sizes := map[string]float64{
		"Twitter":  25 * GB,
		"Wcount":   20 * GB,
		"DistGrep": 20 * GB,
		"Sort":     20 * GB,
		"Kmeans":   10 * GB,
	}
	specs := Benchmarks()
	if len(specs) != 6 {
		t.Fatalf("got %d benchmarks, want 6", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if want, ok := sizes[s.Name]; ok && s.InputMB != want {
			t.Errorf("%s input = %v MB, want %v", s.Name, s.InputMB, want)
		}
	}
}

func TestCPUBoundClassification(t *testing.T) {
	want := map[string]bool{
		"Twitter": false, "Wcount": false, "PiEst": true,
		"DistGrep": false, "Sort": false, "Kmeans": true,
	}
	for _, s := range Benchmarks() {
		if got := IsCPUBound(s); got != want[s.Name] {
			t.Errorf("IsCPUBound(%s) = %v, want %v", s.Name, got, want[s.Name])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Sort")
	if err != nil || s.Name != "Sort" {
		t.Errorf("ByName(Sort) = %v, %v", s.Name, err)
	}
	if _, err := ByName("NoSuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if got := len(BenchmarkNames()); got != 6 {
		t.Errorf("BenchmarkNames len = %d", got)
	}
}

func deployOnVM(t *testing.T) (*sim.Engine, *cluster.Cluster, *Service, *cluster.VM) {
	t.Helper()
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 3, nil)
	pm := c.AddPM("pm-0")
	vm, err := c.AddVM("vm-0", pm, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Deploy(RUBiS(), vm)
	if err != nil {
		t.Fatal(err)
	}
	return engine, c, svc, vm
}

func TestServiceLatencyGrowsWithLoad(t *testing.T) {
	engine, _, svc, _ := deployOnVM(t)
	latency := func(clients int) float64 {
		svc.SetClients(clients)
		engine.RunUntil(engine.Now() + time.Second)
		return svc.LatencyMs()
	}
	low := latency(400)
	mid := latency(2400)
	high := latency(6400)
	over := latency(16000)
	if !(low < mid && mid < high) {
		t.Errorf("latency not increasing: %v, %v, %v", low, mid, high)
	}
	if high > svc.Spec().SLAMs {
		// Figure 8(d): RUBiS alone stays within the SLA through 6400
		// clients.
		t.Errorf("6400 clients violate SLA in isolation: %v ms", high)
	}
	if over <= svc.Spec().SLAMs {
		t.Errorf("gross overload does not violate SLA: %v ms", over)
	}
}

func TestServiceInterferenceRaisesLatency(t *testing.T) {
	engine, _, svc, vm := deployOnVM(t)
	svc.SetClients(2200)
	engine.RunUntil(time.Second)
	isolated := svc.LatencyMs()
	if svc.SLAViolated() {
		t.Fatalf("baseline load violates SLA: %v ms", isolated)
	}
	// An I/O+CPU-hungry batch task lands in the same VM.
	hog := &cluster.Consumer{
		Name:   "map-task",
		Demand: resource.NewVector(1, 400, 60, 10),
		Work:   cluster.OpenEnded,
	}
	if err := vm.Start(hog); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(engine.Now() + time.Second)
	contended := svc.LatencyMs()
	if contended <= isolated {
		t.Errorf("latency with hog %v not above isolated %v", contended, isolated)
	}
	// Removing the hog restores latency.
	hog.Stop()
	engine.RunUntil(engine.Now() + time.Second)
	restored := svc.LatencyMs()
	if math.Abs(restored-isolated) > isolated*0.1 {
		t.Errorf("latency did not recover: %v vs %v", restored, isolated)
	}
}

func TestServiceZeroClients(t *testing.T) {
	engine, _, svc, _ := deployOnVM(t)
	engine.RunUntil(time.Second)
	if rho := svc.Rho(); rho != 0 {
		t.Errorf("rho with no clients = %v", rho)
	}
	if l := svc.LatencyMs(); l != svc.Spec().BaseLatencyMs {
		t.Errorf("latency with no clients = %v, want base %v", l, svc.Spec().BaseLatencyMs)
	}
	svc.SetClients(-5)
	if svc.Clients() != 0 {
		t.Error("negative client count not clamped")
	}
}

func TestDeployValidation(t *testing.T) {
	if _, err := Deploy(RUBiS(), nil); err == nil {
		t.Error("nil node accepted")
	}
}

func TestAllServiceSpecs(t *testing.T) {
	for _, spec := range Services() {
		if spec.Name == "" || spec.CPUPerClient <= 0 {
			t.Errorf("bad spec: %+v", spec)
		}
		eff := spec.withDefaults()
		if eff.SLAMs != 2000 {
			t.Errorf("%s SLA = %v, want the paper's 2000 ms", spec.Name, eff.SLAMs)
		}
		if eff.Headroom <= 1 {
			t.Errorf("%s headroom %v not over-provisioned", spec.Name, eff.Headroom)
		}
	}
}

func TestDiurnalTraceDeterministicAndBounded(t *testing.T) {
	tr := &DiurnalTrace{Base: 1000, Amplitude: 500, Seed: 9}
	for _, at := range []time.Duration{0, time.Minute, 7 * time.Minute, time.Hour} {
		a := tr.ClientsAt(at)
		b := tr.ClientsAt(at)
		if a != b {
			t.Errorf("trace not deterministic at %v: %d vs %d", at, a, b)
		}
		if a < 0 || a > int(float64(1500)*1.8+1) {
			t.Errorf("load %d out of bounds at %v", a, at)
		}
	}
	// The sinusoid must actually move.
	lo, hi := math.MaxInt32, 0
	for m := 0; m < 20; m++ {
		v := tr.ClientsAt(time.Duration(m) * time.Minute)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 300 {
		t.Errorf("trace too flat: range [%d, %d]", lo, hi)
	}
}

// ramp is a test trace: start clients plus step more every interval.
type ramp struct {
	start, step int
	every       time.Duration
}

func (r ramp) ClientsAt(t time.Duration) int { return r.start + r.step*int(t/r.every) }

func TestLoadDriverAppliesTrace(t *testing.T) {
	engine, _, svc, _ := deployOnVM(t)
	drv := NewLoadDriver(engine, svc, ramp{start: 100, step: 100, every: 30 * time.Second}, 30*time.Second)
	engine.RunUntil(2 * time.Minute)
	if got := svc.Clients(); got < 400 {
		t.Errorf("clients after 2 min = %d, want >= 400", got)
	}
	drv.Stop()
	at := svc.Clients()
	engine.RunUntil(4 * time.Minute)
	if svc.Clients() != at {
		t.Error("driver kept updating after Stop")
	}
}

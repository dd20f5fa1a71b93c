package metrics

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/sim"
)

func rig(t *testing.T) (*sim.Engine, *cluster.Cluster, *cluster.PM) {
	t.Helper()
	engine := sim.New()
	c := cluster.New(engine, cluster.Config{}, 5, nil)
	pm := c.AddPM("pm-0")
	return engine, c, pm
}

func TestRecorderEnergyIdle(t *testing.T) {
	engine, c, _ := rig(t)
	rec := NewRecorder(c, 10*time.Second, time.Hour, nil)
	engine.RunUntil(time.Hour)
	rec.Stop()
	engine.Run()
	// One idle PM at 150 W for 1 h = 150 Wh.
	if got := rec.EnergyWh(); math.Abs(got-150) > 1 {
		t.Errorf("EnergyWh = %v, want ~150", got)
	}
}

func TestRecorderBusyEnergyAndUtil(t *testing.T) {
	engine, c, pm := rig(t)
	con := &cluster.Consumer{
		Name:   "busy",
		Demand: resource.NewVector(2, 0, 0, 0),
		Work:   cluster.OpenEnded,
	}
	if err := pm.Start(con); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(c, 10*time.Second, time.Hour, nil)
	engine.RunUntil(time.Hour)
	rec.Stop()
	// Fully busy: 250 W for 1 h.
	if got := rec.EnergyWh(); math.Abs(got-250) > 2 {
		t.Errorf("EnergyWh = %v, want ~250", got)
	}
	if got := rec.MeanUtil(resource.CPU); math.Abs(got-1) > 0.01 {
		t.Errorf("MeanUtil(cpu) = %v, want ~1", got)
	}
	if len(rec.Samples()) == 0 {
		t.Fatal("no samples")
	}
	if rec.Samples()[0].PMsOn != 1 {
		t.Errorf("PMsOn = %d, want 1", rec.Samples()[0].PMsOn)
	}
}

func TestRecorderSeries(t *testing.T) {
	engine, c, pm := rig(t)
	engine.After(30*time.Second, func() {
		con := &cluster.Consumer{
			Name:   "late",
			Demand: resource.NewVector(2, 0, 0, 0),
			Work:   cluster.OpenEnded,
		}
		if err := pm.Start(con); err != nil {
			t.Error(err)
		}
	})
	rec := NewRecorder(c, 10*time.Second, 2*time.Minute, nil)
	engine.RunUntil(2 * time.Minute)
	rec.Stop()
	ts, us := rec.Series(resource.CPU)
	if len(ts) != len(us) || len(ts) < 10 {
		t.Fatalf("series lengths %d/%d", len(ts), len(us))
	}
	if us[0] != 0 {
		t.Errorf("utilization before load = %v, want 0", us[0])
	}
	if us[len(us)-1] < 0.99 {
		t.Errorf("utilization after load = %v, want ~1", us[len(us)-1])
	}
}

func TestRecorderStopIdempotent(t *testing.T) {
	engine, c, _ := rig(t)
	rec := NewRecorder(c, 10*time.Second, 0, nil)
	engine.RunUntil(time.Minute)
	rec.Stop()
	rec.Stop()
	n := len(rec.Samples())
	engine.RunUntil(2 * time.Minute)
	if len(rec.Samples()) != n {
		t.Error("recorder sampled after Stop")
	}
}

func TestRecorderHorizonClampsAccounting(t *testing.T) {
	engine, c, _ := rig(t)
	// Ticks at 10 s, 20 s, 30 s — the horizon (25 s) falls between ticks.
	rec := NewRecorder(c, 10*time.Second, 25*time.Second, nil)
	engine.RunUntil(40 * time.Second)

	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	last := samples[len(samples)-1]
	if last.At != 25*time.Second {
		t.Errorf("last sample at %v, want exactly the 25s horizon", last.At)
	}
	// One idle PM at 150 W for 25 s — not 30 s.
	want := 150.0 * 25
	if math.Abs(rec.energyJ-want) > 1 {
		t.Errorf("energyJ = %v, want %v (energy must not run past the horizon)", rec.energyJ, want)
	}

	// Stop after the horizon already closed the books: no extra sample,
	// no extra energy.
	rec.Stop()
	rec.Stop()
	if got := len(rec.Samples()); got != len(samples) {
		t.Errorf("Stop after horizon added samples: %d -> %d", len(samples), got)
	}
	if math.Abs(rec.energyJ-want) > 1 {
		t.Errorf("Stop after horizon changed energy: %v", rec.energyJ)
	}
}

func TestRecorderStopAtTickInstantNoDoubleCount(t *testing.T) {
	engine, c, _ := rig(t)
	rec := NewRecorder(c, 10*time.Second, 0, nil)
	// Run to exactly a tick time, then Stop at the same instant.
	engine.RunUntil(30 * time.Second)
	rec.Stop()
	samples := rec.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3 (ticks at 10/20/30, Stop must not duplicate the 30s one)", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At == samples[i-1].At {
			t.Errorf("duplicate sample timestamp %v", samples[i].At)
		}
	}
	if want := 150.0 * 30; math.Abs(rec.energyJ-want) > 1 {
		t.Errorf("energyJ = %v, want %v", rec.energyJ, want)
	}
}

func TestPerfPerEnergy(t *testing.T) {
	base := PerfPerEnergy(100, 1000)
	faster := PerfPerEnergy(50, 1000)
	leaner := PerfPerEnergy(100, 500)
	if !(faster > base && leaner > base) {
		t.Errorf("PerfPerEnergy ordering wrong: base=%v faster=%v leaner=%v", base, faster, leaner)
	}
	if PerfPerEnergy(0, 100) != 0 || PerfPerEnergy(100, 0) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

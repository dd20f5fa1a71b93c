package workload

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Trace yields a client count for each instant of simulated time.
type Trace interface {
	// ClientsAt returns the offered load at time t.
	ClientsAt(t time.Duration) int
}

// DiurnalTrace models the bursty, over-provisioned interactive load the
// paper's consolidation argument depends on: a sinusoidal baseline plus
// seeded random bursts.
type DiurnalTrace struct {
	// Base is the mean client count.
	Base int
	// Amplitude is the peak deviation of the sinusoid.
	Amplitude int
	// Period is the sinusoid's period (default 20 minutes, compressing a
	// day into a simulable horizon).
	Period time.Duration
	// BurstProb is the per-sample probability of a burst (default 0.05).
	BurstProb float64
	// BurstFactor scales load during a burst (default 1.8).
	BurstFactor float64
	// Seed fixes the burst pattern.
	Seed int64
}

var _ Trace = (*DiurnalTrace)(nil)

// ClientsAt evaluates the trace. Burst decisions are made per 30-second
// bucket from the seed, so the same trace object is deterministic across
// queries and runs.
func (d *DiurnalTrace) ClientsAt(t time.Duration) int {
	period := d.Period
	if period <= 0 {
		period = 20 * time.Minute
	}
	burstProb := d.BurstProb
	if burstProb <= 0 {
		burstProb = 0.05
	}
	burstFactor := d.BurstFactor
	if burstFactor <= 0 {
		burstFactor = 1.8
	}
	phase := 2 * math.Pi * float64(t%period) / float64(period)
	load := float64(d.Base) + float64(d.Amplitude)*math.Sin(phase)
	bucket := int64(t / (30 * time.Second))
	rng := rand.New(rand.NewSource(d.Seed*1_000_003 + bucket))
	if rng.Float64() < burstProb {
		load *= burstFactor
	}
	if load < 0 {
		return 0
	}
	return int(load)
}

// LoadDriver periodically applies a trace to a service.
type LoadDriver struct {
	ticker *sim.Ticker
}

// NewLoadDriver updates svc's client count from the trace every interval
// (default 15 s) until Stop.
func NewLoadDriver(engine *sim.Engine, svc *Service, trace Trace, interval time.Duration) *LoadDriver {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	svc.SetClients(trace.ClientsAt(engine.Now()))
	d := &LoadDriver{}
	d.ticker = sim.NewTicker(engine, interval, func(now time.Duration) {
		svc.SetClients(trace.ClientsAt(now))
	})
	return d
}

// Stop halts the driver.
func (d *LoadDriver) Stop() { d.ticker.Stop() }

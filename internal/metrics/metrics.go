// Package metrics records cluster utilization, power and energy over
// simulated time, and aggregates job-completion statistics — the
// accounting behind the paper's utilization, energy and
// performance-per-energy results (Figures 9(c) and 10(a)).
package metrics

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Sample is one utilization/power observation.
type Sample struct {
	// At is the simulation time of the observation.
	At time.Duration
	// Util holds mean per-resource utilization across powered-on PMs.
	Util resource.Vector
	// PowerW is the instantaneous total power draw.
	PowerW float64
	// PMsOn is the number of powered-on PMs.
	PMsOn int
}

// Recorder samples a cluster periodically and integrates energy. Stop it
// before draining the event queue, or give it a horizon.
type Recorder struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	ticker  *sim.Ticker
	horizon time.Duration
	stopped bool
	samples []Sample
	energyJ float64
	lastAt  time.Duration
	lastW   float64
	ts      *timeseries.Collector
}

// NewRecorder starts sampling every interval (default 10 s). If horizon
// is positive the recorder stops itself at that time, letting the event
// queue drain naturally; no sample or energy is recorded past the
// horizon, even when the ticks do not divide it evenly. When the handle
// carries a time-series collector, every sampling tick feeds the
// cluster's power, powered-on PM count and per-resource utilization
// gauges into it and triggers a probe sweep, so probe-backed series
// (engine depth, task queues) share the recorder's cadence. A nil handle
// records samples only.
func NewRecorder(c *cluster.Cluster, interval, horizon time.Duration, sinks *obs.Sinks) *Recorder {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	r := &Recorder{
		engine:  c.Engine(),
		cluster: c,
		horizon: horizon,
		lastAt:  c.Engine().Now(),
		lastW:   c.FleetStats().PowerW,
		ts:      obs.Of(sinks).TimeSeries,
	}
	r.ticker = sim.NewTicker(r.engine, interval, func(now time.Duration) {
		r.sample(now)
		if horizon > 0 && now >= horizon {
			r.stopped = true
			r.ticker.Stop()
		}
	})
	return r
}

func (r *Recorder) sample(now time.Duration) {
	// Accounting never extends past the horizon: the first tick at or
	// beyond it is attributed to the horizon instant itself.
	if r.horizon > 0 && now > r.horizon {
		now = r.horizon
	}
	// A tick and a Stop (or two Stops) at the same instant must not
	// record the observation twice.
	if n := len(r.samples); n > 0 && r.samples[n-1].At == now {
		return
	}
	fleet := r.cluster.FleetStats()
	w := fleet.PowerW
	// Trapezoidal integration of power into energy.
	dt := (now - r.lastAt).Seconds()
	if dt > 0 {
		r.energyJ += (w + r.lastW) / 2 * dt
	}
	r.lastAt = now
	r.lastW = w
	util, pmsOn := fleet.Util, fleet.PMsOn
	r.samples = append(r.samples, Sample{At: now, Util: util, PowerW: w, PMsOn: pmsOn})
	if r.ts != nil {
		r.ts.SetGauge("cluster.power_w", "", now, w)
		r.ts.SetGauge("cluster.pms_on", "", now, float64(pmsOn))
		for _, k := range resource.Kinds() {
			r.ts.SetGauge("cluster.util."+k.String(), "", now, util.Get(k))
		}
		r.ts.SampleProbes(now)
	}
}

// Stop halts sampling, taking one final sample so that energy accounting
// covers the full interval. Stop is idempotent, and a no-op after the
// horizon has already closed the books.
func (r *Recorder) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.ticker.Stop()
	r.sample(r.engine.Now())
}

// Samples returns the recorded observations.
func (r *Recorder) Samples() []Sample {
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// EnergyWh returns the integrated energy in watt-hours.
func (r *Recorder) EnergyWh() float64 { return r.energyJ / 3600 }

// EnergyJ returns the integrated energy in joules.
func (r *Recorder) EnergyJ() float64 { return r.energyJ }

// MeanUtil returns the average sampled utilization of a resource.
func (r *Recorder) MeanUtil(kind resource.Kind) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	vals := make([]float64, len(r.samples))
	for i, s := range r.samples {
		vals[i] = s.Util.Get(kind)
	}
	return stats.Mean(vals)
}

// MeanPowerW returns the average sampled power draw.
func (r *Recorder) MeanPowerW() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	vals := make([]float64, len(r.samples))
	for i, s := range r.samples {
		vals[i] = s.PowerW
	}
	return stats.Mean(vals)
}

// Series extracts the (time, utilization) series of one resource, for the
// Figure 10(a) timelines.
func (r *Recorder) Series(kind resource.Kind) ([]time.Duration, []float64) {
	ts := make([]time.Duration, len(r.samples))
	us := make([]float64, len(r.samples))
	for i, s := range r.samples {
		ts[i] = s.At
		us[i] = s.Util.Get(kind)
	}
	return ts, us
}

// JobStats aggregates completion times of a batch of jobs.
type JobStats struct {
	// JCTs holds each job's completion time in seconds.
	JCTs []float64
}

// Add records one completion time.
func (j *JobStats) Add(jct time.Duration) { j.JCTs = append(j.JCTs, jct.Seconds()) }

// Mean returns the mean JCT in seconds.
func (j *JobStats) Mean() float64 { return stats.Mean(j.JCTs) }

// Max returns the largest JCT in seconds.
func (j *JobStats) Max() float64 {
	m := 0.0
	for _, v := range j.JCTs {
		if v > m {
			m = v
		}
	}
	return m
}

// Count returns the number of recorded jobs.
func (j *JobStats) Count() int { return len(j.JCTs) }

// PerfPerEnergy is the paper's design metric: work rate per unit energy,
// computed as jobs-per-second-per-kilowatt-hour scaled for readability.
// Larger is better. Zero mean JCT or energy yields zero.
func PerfPerEnergy(meanJCTSec, energyWh float64) float64 {
	if meanJCTSec <= 0 || energyWh <= 0 {
		return 0
	}
	return 1e6 / (meanJCTSec * energyWh)
}

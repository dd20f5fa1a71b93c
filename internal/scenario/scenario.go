// Package scenario runs the paper's hybrid data center end to end:
// interactive services under load on the virtual hosts beside a stream
// of batch job arrivals, under the HybridMR System. A Spec declares the
// run; Run builds it, drives the clock and returns what it observed.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// epoch is the load-driver and SLA-sampling cadence, the IPS's.
const epoch = 15 * time.Second

// Spec declares one run.
type Spec struct {
	// Rig shapes the testbed. Run sets its Policies to System.Policies,
	// so both partitions' Phase II seam follows the System's selection,
	// as the facade's NewHybridCluster does.
	Rig testbed.Options
	// System configures the HybridMR scheduler over the rig.
	System core.Config
	// Services are deployed in order, the i-th on its own VM on the
	// rig's hosts (testbed.ServiceVM) and registered with the IPS.
	Services []Service
	// Arrivals are submitted through Phase I at their times, in list
	// order.
	Arrivals []Arrival
	// RecorderInterval > 0 samples the cluster's power at that interval
	// and integrates it into Outcome.EnergyWh; 0 records none.
	RecorderInterval time.Duration
	// Horizon bounds the run in simulated time.
	Horizon time.Duration
	// UntilDone ends the run once every arrival's job has completed,
	// stepping the clock a minute at a time; a job still running at
	// Horizon is then an error. Otherwise Run advances the clock to
	// Horizon in one step.
	UntilDone bool
}

// Service is one interactive application under a fixed client count,
// or, when Trace is non-nil, the trace's count every 15 s.
type Service struct {
	Spec    workload.ServiceSpec
	Clients int
	Trace   workload.Trace
}

// Diurnal is n services, the i-th of workload.Services() round-robin,
// each under a DiurnalTrace of the given base and amplitude seeded
// seed+i.
func Diurnal(n, base, amplitude int, seed int64) []Service {
	specs := workload.Services()
	out := make([]Service, n)
	for i := range out {
		out[i] = Service{Spec: specs[i%len(specs)], Trace: &workload.DiurnalTrace{
			Base: base, Amplitude: amplitude, Seed: seed + int64(i),
		}}
	}
	return out
}

// Arrival is one batch job submitted at At. Deadline is the desired
// JCT Phase I weighs; 0 means none.
type Arrival struct {
	At       time.Duration
	Spec     mapred.JobSpec
	Deadline time.Duration
}

// Outcome is what a run observed.
type Outcome struct {
	// Jobs are the submitted jobs in submission order; JCTs are the
	// completed ones' completion times in seconds, in completion order.
	Jobs []*mapred.Job
	JCTs []float64
	// Latencies holds one SLA epoch per entry: each service's mean
	// response time in ms, in deployment order, every 15 s.
	// SLAViolations counts the entries over their service's SLA.
	Latencies     []float64
	SLAViolations int
	// EnergyWh is the cluster's integrated energy (0 without a
	// recorder).
	EnergyWh    float64
	EventsFired uint64
}

// SLAViolationRate is the fraction of SLA epochs in violation.
func (o Outcome) SLAViolationRate() float64 {
	if len(o.Latencies) == 0 {
		return 0
	}
	return float64(o.SLAViolations) / float64(len(o.Latencies))
}

// Run builds the rig and the System, deploys the services, schedules
// the arrivals and drives the clock to Horizon, or until every job is
// done. A failed submission halts the run: Run returns the first such
// error, naming the job and the simulated time, with the Outcome
// observed up to it.
func Run(spec Spec) (Outcome, error) {
	spec.Rig.Policies = spec.System.Policies
	rig, err := testbed.New(spec.Rig)
	if err != nil {
		return Outcome{}, err
	}
	sys, err := core.NewSystem(rig.Cluster, rig.NativeJT, rig.JT, spec.System, &rig.Obs)
	if err != nil {
		return Outcome{}, err
	}
	engine := rig.Engine

	// Engine events are pushed in one fixed order: services with their
	// load drivers, the recorder, the arrivals, the sampling ticker. The
	// engine is dropped with the run, so of its tickers only the
	// recorder's is stopped: its last sample closes the energy integral.
	var services []*workload.Service
	for i, s := range spec.Services {
		vm, err := testbed.ServiceVM(rig.Cluster, rig.PMs, i, s.Spec.Name)
		if err != nil {
			return Outcome{}, err
		}
		svc, err := sys.DeployService(s.Spec, vm)
		if err != nil {
			return Outcome{}, err
		}
		if s.Trace != nil {
			workload.NewLoadDriver(engine, svc, s.Trace, epoch)
		} else {
			svc.SetClients(s.Clients)
		}
		services = append(services, svc)
	}
	var rec *metrics.Recorder
	if spec.RecorderInterval > 0 {
		rec = metrics.NewRecorder(rig.Cluster, spec.RecorderInterval, 0, &rig.Obs)
	}

	var out Outcome
	var submitErr error
	for _, a := range spec.Arrivals {
		engine.After(a.At, func() {
			job, _, err := sys.SubmitJob(a.Spec, a.Deadline, func(j *mapred.Job) {
				out.JCTs = append(out.JCTs, j.JCT().Seconds())
			})
			if err != nil {
				submitErr = fmt.Errorf("scenario: submit %s at %v: %w", a.Spec.Name, engine.Now(), err)
				engine.Halt()
				return
			}
			out.Jobs = append(out.Jobs, job)
		})
	}
	sim.NewTicker(engine, epoch, func(time.Duration) {
		for _, svc := range services {
			out.Latencies = append(out.Latencies, svc.LatencyMs())
			if svc.SLAViolated() {
				out.SLAViolations++
			}
		}
	})

	if spec.UntilDone {
		for at := time.Minute; at <= spec.Horizon && submitErr == nil && len(out.JCTs) < len(spec.Arrivals); at += time.Minute {
			engine.RunUntil(at)
		}
	} else {
		engine.RunUntil(spec.Horizon)
	}
	if rec != nil {
		rec.Stop()
		out.EnergyWh = rec.EnergyWh()
	}
	out.EventsFired = engine.Fired()
	if submitErr != nil {
		return out, submitErr
	}
	if spec.UntilDone && len(out.JCTs) < len(spec.Arrivals) {
		return out, fmt.Errorf("scenario: %d of %d jobs completed within %v", len(out.JCTs), len(spec.Arrivals), spec.Horizon)
	}
	return out, nil
}

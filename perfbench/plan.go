package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	hybridmr "repro"
)

// workloadNames lists the benchmark's workloads in report order.
var workloadNames = []string{"mixed", "scaleup", "faults"}

// plan is one workload's generated inputs: the deployment shape, the
// interactive services and their client traces, and the open-loop job
// stream. Everything in a plan derives from the workload seed, and the
// program under test receives only these inputs.
type plan struct {
	name string
	seed int64

	cluster hybridmr.ClusterSpec
	// services are deployed on the virtual partition before the run.
	services []servicePlan
	// jobs arrive at fixed simulated instants, sorted by arrival.
	jobs []jobPlan
	// faults, when non-nil, arms the seeded chaos profile.
	faults *hybridmr.FaultOptions
	// sinks turns on every observability sink: tracer, metrics registry,
	// audit log, time series and the invariant checker.
	sinks bool
	// cleanup deletes each completed job's input file, as a long-running
	// cluster does, so the DFS holds the running jobs' data rather than
	// everything the stream ever read.
	cleanup bool

	// step is the simulated stride between two top-level checks: client
	// updates and SLA samples when services run, the completion check
	// otherwise.
	step time.Duration
	// sample is the energy recorder's interval.
	sample time.Duration
}

// simLimit bounds every simulated run; jobs still running then count as
// failed.
const simLimit = 72 * time.Hour

type servicePlan struct {
	spec  hybridmr.ServiceSpec
	trace diurnal
}

type jobPlan struct {
	at       time.Duration
	spec     hybridmr.JobSpec
	deadline time.Duration
}

// diurnal is a seeded client trace: a sinusoid with a per-service phase,
// plus bursts decided per 30-second bucket by hashing the seed.
type diurnal struct {
	base, amplitude int
	period          time.Duration
	phase           float64
	seed            uint64
}

func (d diurnal) clientsAt(t time.Duration) int {
	load := float64(d.base) + float64(d.amplitude)*math.Sin(2*math.Pi*float64(t%d.period)/float64(d.period)+d.phase)
	bucket := uint64(t / (30 * time.Second))
	if splitmix(d.seed^bucket)%100 < 5 {
		load *= 1.8
	}
	return int(math.Max(load, 0))
}

// splitmix is the SplitMix64 finalizer: a cheap, allocation-free hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// makePlan generates a workload's inputs from its seed. scale shrinks the
// job stream and the fleet (1 is the benchmark's size; the self-test runs
// at a small fraction).
func makePlan(name string, seed int64, scale float64) (*plan, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("scale %v outside (0, 1]", scale)
	}
	rng := rand.New(rand.NewSource(seed))
	n := func(full, min int) int { return max(min, int(math.Round(float64(full)*scale))) }
	switch name {
	case "mixed":
		p := &plan{
			name: name, seed: seed,
			cluster: hybridmr.ClusterSpec{NativePMs: n(12, 4), VirtualHostPMs: n(12, 4), VMsPerHost: 2, Seed: seed},
			step:    15 * time.Second, sample: 30 * time.Second,
		}
		p.services = services(rng, seed)
		p.jobs = jobStream(rng, mixedRoster(), n(800, 12), 45*time.Second, 3)
		return p, nil
	case "scaleup":
		size := n(10000, 48)
		p := &plan{
			name: name, seed: seed,
			cluster: hybridmr.ClusterSpec{NativePMs: size / 2, VirtualHostPMs: (size + 1) / 2, VMsPerHost: 2, Seed: seed + int64(size)},
			step:    time.Minute, sample: 5 * time.Second,
		}
		// Waves of small Sort jobs, as in the scale sweep's weak-scaling
		// point: every other job carries a generous deadline (placed
		// virtual, keeping the DRM busy), and each wave's jobs arrive
		// jittered inside the first ten seconds of the wave.
		wave := max(2, size/12)
		factors := strata(rng, 5*wave)
		for w := 0; w < 5; w++ {
			for j := 0; j < wave; j++ {
				spec := hybridmr.Sort().WithInputMB(math.Round(192 * factors[w*wave+j]))
				spec.Reduces = 2
				jp := jobPlan{
					at:   time.Duration(w)*2*time.Minute + time.Duration(rng.Int63n(int64(10*time.Second))),
					spec: spec,
				}
				if j%2 == 0 {
					jp.deadline = 2 * time.Hour
				}
				p.jobs = append(p.jobs, jp)
			}
		}
		sort.SliceStable(p.jobs, func(a, b int) bool { return p.jobs[a].at < p.jobs[b].at })
		return p, nil
	case "faults":
		p := &plan{
			name: name, seed: seed,
			cluster: hybridmr.ClusterSpec{
				NativePMs: n(12, 4), VirtualHostPMs: n(12, 4), VMsPerHost: 2,
				Racks: 4, PowerDomains: 2, Seed: seed,
				// The IPS stays off: its relocations under these faults
				// leave a task with two running primary attempts, which
				// the invariant checker flags, on most seeds.
				Config: hybridmr.SystemConfig{DisableIPS: true},
			},
			sinks: true, cleanup: true,
			step: 15 * time.Second, sample: 10 * time.Second,
		}
		// The services load the virtual partition as in mixed; without
		// them Phase I placement swings between partitions from seed to
		// seed, and so does the work.
		p.services = services(rng, seed)
		p.jobs = jobStream(rng, mixedRoster(), n(800, 12), 45*time.Second, 3)
		faults, err := faultPlan(rng, p.cluster, p.jobs[len(p.jobs)-1].at)
		if err != nil {
			return nil, err
		}
		p.faults = faults
		return p, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// faultPlan draws the faults workload's failures over the horizon: every
// kind comes in a fixed number, at evenly spread, seed-jittered instants,
// against seeded targets, so that every seed does about as much recovery
// work. Native PMs crash and are repaired two minutes later; worker VMs
// crash for good; racks are partitioned for 90 s; trackers hang for 45 s;
// replicas are lost; PMs straggle at a third of their speed for 60 s.
// Rack and power-domain crashes are left out: they can strand a job on a
// fleet with no viable tracker, which the invariant checker reports as a
// livelock rather than a recovery. Virtual hosts are not crashed either:
// their VMs do not come back on repair, and a few such crashes leave the
// virtual partition too small for the stream.
func faultPlan(rng *rand.Rand, spec hybridmr.ClusterSpec, horizon time.Duration) (*hybridmr.FaultOptions, error) {
	// Target names come from an unarmed copy of the deployment.
	probe, err := hybridmr.NewHybridCluster(spec)
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	hosts := map[string]bool{}
	for _, pm := range probe.HostPMs {
		hosts[pm.Name()] = true
	}
	var natives, all, vms []string
	for _, pm := range probe.Cluster.PMs() {
		all = append(all, pm.Name())
		if !hosts[pm.Name()] {
			natives = append(natives, pm.Name())
		}
	}
	for _, vm := range probe.VMs {
		vms = append(vms, vm.Name())
	}
	trackers := append(append([]string(nil), natives...), vms...)
	racks := probe.Cluster.Racks()

	var sched []hybridmr.ScheduledFault
	// every spreads horizon/gap faults of one kind evenly, each jittered
	// inside its own slot.
	every := func(gap time.Duration, add func(at time.Duration)) {
		count := max(1, int(horizon/gap))
		for k := 0; k < count; k++ {
			add(time.Duration((float64(k) + 0.1 + 0.8*rng.Float64()) / float64(count) * float64(horizon)))
		}
	}
	pick := func(names []string) string { return names[rng.Intn(len(names))] }
	every(75*time.Minute, func(at time.Duration) {
		pm := pick(natives)
		sched = append(sched,
			hybridmr.ScheduledFault{At: at, Kind: hybridmr.FaultPMCrash, Target: pm},
			hybridmr.ScheduledFault{At: at + 2*time.Minute, Kind: hybridmr.FaultPMRepair, Target: pm})
	})
	victims := rng.Perm(len(vms))
	every(200*time.Minute, func(at time.Duration) {
		sched = append(sched, hybridmr.ScheduledFault{At: at, Kind: hybridmr.FaultVMCrash, Target: vms[victims[0]]})
		victims = victims[1:]
	})
	every(100*time.Minute, func(at time.Duration) {
		sched = append(sched, hybridmr.ScheduledFault{At: at, Kind: hybridmr.FaultNetPartition, Target: pick(racks), Duration: 90 * time.Second})
	})
	every(10*time.Minute, func(at time.Duration) {
		sched = append(sched, hybridmr.ScheduledFault{At: at, Kind: hybridmr.FaultTrackerHang, Target: pick(trackers), Duration: 45 * time.Second})
	})
	every(7*time.Minute+30*time.Second, func(at time.Duration) {
		sched = append(sched, hybridmr.ScheduledFault{At: at, Kind: hybridmr.FaultBlockLoss})
	})
	every(10*time.Minute, func(at time.Duration) {
		sched = append(sched, hybridmr.ScheduledFault{At: at, Kind: hybridmr.FaultStraggler, Target: pick(all), Factor: 3, Duration: time.Minute})
	})
	return &hybridmr.FaultOptions{Schedule: sched}, nil
}

// services are RUBiS, TPC-W and Olio, each under a diurnal client trace
// with a seeded phase and seeded bursts.
func services(rng *rand.Rand, seed int64) []servicePlan {
	var out []servicePlan
	for i, spec := range []hybridmr.ServiceSpec{hybridmr.RUBiS(), hybridmr.TPCW(), hybridmr.Olio()} {
		out = append(out, servicePlan{spec: spec, trace: diurnal{
			base: 2000, amplitude: 800, period: 20 * time.Minute,
			phase: rng.Float64() * 2 * math.Pi, seed: uint64(seed)*1_000_003 + uint64(i),
		}})
	}
	return out
}

// mixedRoster is the paper's six batch benchmarks at a reduced nominal
// size: 3 GB of input, or 24 tasks for fixed-work PiEst, with at most 8
// reduces.
func mixedRoster() []hybridmr.JobSpec {
	var out []hybridmr.JobSpec
	for _, spec := range hybridmr.Benchmarks() {
		if spec.FixedMapWork > 0 {
			spec.FixedMapTasks = 24
		} else {
			spec = spec.WithInputMB(3 * 1024)
			spec.Reduces = max(1, min(spec.Reduces, 8))
		}
		out = append(out, spec)
	}
	return out
}

// jobStream builds an open-loop stream of n jobs: job i is due at
// i*gap plus a seeded jitter inside its slot, cycles through the roster in
// a seeded order so every benchmark appears equally often, scales its
// input (or task count) by a factor from strata, and exactly every
// deadlineEvery-th job (in a seeded order) carries a deadline.
func jobStream(rng *rand.Rand, roster []hybridmr.JobSpec, n int, gap time.Duration, deadlineEvery int) []jobPlan {
	factors := make([][]float64, len(roster))
	for r := range factors {
		factors[r] = strata(rng, (n+len(roster)-1)/len(roster))
	}
	order := rng.Perm(len(roster))
	withDeadline := rng.Perm(n)
	jobs := make([]jobPlan, n)
	for i := range jobs {
		r := order[i%len(order)]
		if i%len(order) == len(order)-1 {
			order = rng.Perm(len(roster))
		}
		spec, f := roster[r], factors[r][0]
		factors[r] = factors[r][1:]
		if spec.FixedMapWork > 0 {
			spec.FixedMapTasks = max(1, int(float64(spec.FixedMapTasks)*f))
		} else {
			spec = spec.WithInputMB(math.Round(spec.InputMB * f))
		}
		jobs[i] = jobPlan{
			at:   time.Duration(i)*gap + time.Duration(rng.Int63n(int64(gap))),
			spec: spec,
		}
	}
	for _, i := range withDeadline[:n/deadlineEvery] {
		jobs[i].deadline = 15 * time.Minute
	}
	return jobs
}

// strata returns n evenly spaced scale factors covering [0.5, 1.5] in a
// seeded order. Every seed draws the same sizes, so the seed moves which
// job gets which size, not how much work the stream holds.
func strata(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for k, j := range rng.Perm(n) {
		out[k] = 0.5 + (float64(j)+0.5)/float64(n)
	}
	return out
}

// trainingRoster is the job set Phase I is pre-trained on. The profiler
// trains once per benchmark and environment, at the size it first sees,
// and estimates every other size from that history; pre-training on the
// nominal roster keeps setup the same for every seed.
func (p *plan) trainingRoster() []hybridmr.JobSpec {
	if p.name == "scaleup" {
		spec := hybridmr.Sort().WithInputMB(192)
		spec.Reduces = 2
		return []hybridmr.JobSpec{spec}
	}
	return mixedRoster()
}

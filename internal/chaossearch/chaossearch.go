// Package chaossearch is a seed-deterministic fuzzer for the simulated
// stack's recovery machinery. It generates random correlated-fault
// schedules (machine, rack and power-domain crashes, network
// partitions, hangs, block loss, stragglers) against a fixed scenario
// template, runs every schedule under the runtime invariant checker,
// and — when a schedule breaks an invariant — delta-debugs it down to
// the smallest schedule that still reproduces the same named violation.
//
// Everything is derived from (template, search seed, trial index), so
// a search is exactly reproducible: the same seed finds the same
// failing schedule, minimizes it identically, and emits byte-identical
// CHAOS.json at any worker-pool parallelism. Trials run through the
// experiments worker pool; results are index-ordered, and the lowest
// failing index wins, which makes the outcome independent of worker
// scheduling.
package chaossearch

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Template fixes the scenario a chaos schedule runs against: the rig
// shape, its topology, the workload window, and optional sabotage
// hooks that deliberately break recovery paths so the harness can prove
// it notices.
type Template struct {
	// Name labels the template in reports.
	Name string `json:"name"`
	// PMs and VMsPerPM shape the rig (a virtual cluster).
	PMs      int `json:"pms"`
	VMsPerPM int `json:"vms_per_pm"`
	// Racks and PowerDomains assign failure domains
	// (cluster.StripeTopology).
	Racks        int `json:"racks"`
	PowerDomains int `json:"power_domains"`
	// Seed fixes the rig's own randomized decisions (all trials share
	// it; only the fault schedule varies between trials).
	Seed int64 `json:"seed"`
	// Horizon bounds injection times; Slack is extra simulated time the
	// trial runs past the horizon so recovery can finish. A livelocked
	// job keeps its health ticker alive forever, so trials drive
	// RunUntil(Horizon+Slack) — never Run() — and then check invariants.
	Horizon time.Duration `json:"horizon"`
	Slack   time.Duration `json:"slack"`
	// BreakMapRecovery disables the JobTracker's map re-execution path
	// (mapred.Config.DisableMapReexecution) — the deliberate bug the
	// acceptance test hunts.
	BreakMapRecovery bool `json:"break_map_recovery,omitempty"`
}

// DefaultTemplate is a 6 PM x 2 VM hybrid rig across 3 racks and 2
// power domains, running two small shuffle-heavy jobs.
func DefaultTemplate() Template {
	return Template{
		Name:         "virt-6x2-r3p2",
		PMs:          6,
		VMsPerPM:     2,
		Racks:        3,
		PowerDomains: 2,
		Seed:         1,
		Horizon:      8 * time.Minute,
		Slack:        52 * time.Minute,
	}
}

// jobs is the trial workload: small enough that hundreds of trials are
// cheap, shuffle-heavy enough that the reduce/map-output invariants
// have something to bite on.
func (t Template) jobs() []mapred.JobSpec {
	return []mapred.JobSpec{
		workload.Sort().WithInputMB(256),
		workload.Wcount().WithInputMB(192),
	}
}

// Entry is the JSON form of one fault.ScheduledFault; times are integer
// microseconds of simulated time, matching the trace convention.
type Entry struct {
	AtUs       int64   `json:"at_us"`
	Kind       string  `json:"kind"`
	Target     string  `json:"target,omitempty"`
	DurationUs int64   `json:"duration_us,omitempty"`
	Factor     float64 `json:"factor,omitempty"`
}

func entryOf(f fault.ScheduledFault) Entry {
	return Entry{
		AtUs:       f.At.Microseconds(),
		Kind:       string(f.Kind),
		Target:     f.Target,
		DurationUs: f.Duration.Microseconds(),
		Factor:     f.Factor,
	}
}

func (e Entry) fault() fault.ScheduledFault {
	return fault.ScheduledFault{
		At:       time.Duration(e.AtUs) * time.Microsecond,
		Kind:     fault.Kind(e.Kind),
		Target:   e.Target,
		Duration: time.Duration(e.DurationUs) * time.Microsecond,
		Factor:   e.Factor,
	}
}

// Generate derives trial index's fault schedule from the search seed.
// Schedules hold 1–6 faults drawn over the template horizon, weighted
// toward the correlated kinds (that is what the harness exists to
// exercise), sorted by time.
func Generate(tpl Template, searchSeed int64, index int) []fault.ScheduledFault {
	rng := rand.New(rand.NewSource(searchSeed + int64(index+1)*1_000_003))
	n := 1 + rng.Intn(6)
	sched := make([]fault.ScheduledFault, 0, n+2)
	horizon := int64(tpl.Horizon)
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Int63n(horizon))
		switch rng.Intn(8) {
		case 0:
			pm := fmt.Sprintf("pm-%d", rng.Intn(tpl.PMs))
			sched = append(sched, fault.ScheduledFault{At: at, Kind: fault.PMCrash, Target: pm})
			if rng.Float64() < 0.75 {
				repair := at + time.Duration(30+rng.Intn(120))*time.Second
				sched = append(sched, fault.ScheduledFault{At: repair, Kind: fault.PMRepair, Target: pm})
			}
		case 1:
			vm := fmt.Sprintf("vm-%d", rng.Intn(tpl.PMs*tpl.VMsPerPM))
			sched = append(sched, fault.ScheduledFault{At: at, Kind: fault.VMCrash, Target: vm})
		case 2:
			vm := fmt.Sprintf("vm-%d", rng.Intn(tpl.PMs*tpl.VMsPerPM))
			d := time.Duration(20+rng.Intn(60)) * time.Second
			sched = append(sched, fault.ScheduledFault{At: at, Kind: fault.TrackerHang, Target: vm, Duration: d})
		case 3:
			sched = append(sched, fault.ScheduledFault{At: at, Kind: fault.BlockLoss})
		case 4:
			pm := fmt.Sprintf("pm-%d", rng.Intn(tpl.PMs))
			d := time.Duration(30+rng.Intn(90)) * time.Second
			f := 2 + rng.Float64()*3
			sched = append(sched, fault.ScheduledFault{At: at, Kind: fault.Straggler, Target: pm, Duration: d, Factor: f})
		case 5:
			rack := fmt.Sprintf("rack-%d", rng.Intn(tpl.Racks))
			sched = append(sched, fault.ScheduledFault{At: at, Kind: fault.RackCrash, Target: rack})
		case 6:
			pd := fmt.Sprintf("pd-%d", rng.Intn(tpl.PowerDomains))
			sched = append(sched, fault.ScheduledFault{At: at, Kind: fault.PowerDomainCrash, Target: pd})
		default:
			rack := fmt.Sprintf("rack-%d", rng.Intn(tpl.Racks))
			heal := time.Duration(30+rng.Intn(90)) * time.Second
			sched = append(sched, fault.ScheduledFault{At: at, Kind: fault.NetPartition, Target: rack, Duration: heal})
		}
	}
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].At != sched[j].At {
			return sched[i].At < sched[j].At
		}
		if sched[i].Kind != sched[j].Kind {
			return sched[i].Kind < sched[j].Kind
		}
		return sched[i].Target < sched[j].Target
	})
	return sched
}

// Run executes one schedule against the template and returns what the
// invariant checker saw.
func Run(tpl Template, sched []fault.ScheduledFault) ([]invariant.Violation, error) {
	inv := invariant.New()
	rig, err := testbed.New(testbed.Options{
		PMs:          tpl.PMs,
		VMsPerPM:     tpl.VMsPerPM,
		Racks:        tpl.Racks,
		PowerDomains: tpl.PowerDomains,
		Seed:         tpl.Seed,
		MapredConfig: mapred.Config{DisableMapReexecution: tpl.BreakMapRecovery},
		Obs:          obs.Sinks{Audit: audit.New(0)},
		Faults:       &fault.Options{Seed: tpl.Seed + 2, Schedule: sched},
		Invariants:   inv,
	})
	if err != nil {
		return nil, err
	}
	for _, spec := range tpl.jobs() {
		if _, err := rig.JT.Submit(spec, nil); err != nil {
			return nil, err
		}
	}
	rig.Engine.RunUntil(tpl.Horizon + tpl.Slack)
	return inv.Final(), nil
}

// Report is the byte-deterministic artifact of a search (CHAOS.json).
// FailingIndex is -1 when every trial upheld every invariant; otherwise
// Schedule is the minimized repro and Violations is what replaying it
// produces.
type Report struct {
	Template       Template              `json:"template"`
	SearchSeed     int64                 `json:"search_seed"`
	Budget         int                   `json:"budget"`
	FailingIndex   int                   `json:"failing_index"`
	OriginalFaults int                   `json:"original_faults,omitempty"`
	MinimizeRuns   int                   `json:"minimize_runs,omitempty"`
	Schedule       []Entry               `json:"schedule,omitempty"`
	Violations     []invariant.Violation `json:"violations,omitempty"`
}

// JSON renders the report deterministically (stable field order, no
// wall-clock anywhere).
func (r Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Load parses a report written by JSON.
func Load(b []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return Report{}, fmt.Errorf("chaossearch: parse report: %w", err)
	}
	return r, nil
}

// Search runs budget generated schedules through the invariant checker
// (in parallel, via the experiments worker pool) and minimizes the
// lowest-indexed failing one. The result is identical at any
// parallelism: trials are independent and the winner is picked by
// index, not completion order.
func Search(tpl Template, searchSeed int64, budget int) (Report, error) {
	rep := Report{Template: tpl, SearchSeed: searchSeed, Budget: budget, FailingIndex: -1}
	if budget <= 0 {
		return rep, nil
	}
	violations, err := experiments.Map(budget, func(i int) ([]invariant.Violation, error) {
		return Run(tpl, Generate(tpl, searchSeed, i))
	})
	if err != nil {
		return rep, err
	}
	for i, vs := range violations {
		if len(vs) == 0 {
			continue
		}
		rep.FailingIndex = i
		sched := Generate(tpl, searchSeed, i)
		rep.OriginalFaults = len(sched)
		minimized, runs, err := minimize(tpl, sched, vs[0].Name)
		if err != nil {
			return rep, err
		}
		rep.MinimizeRuns = runs
		// One final replay of the minimized schedule pins the recorded
		// violations to exactly what a reader of CHAOS.json will see.
		final, err := Run(tpl, minimized)
		if err != nil {
			return rep, err
		}
		rep.Violations = final
		rep.Schedule = make([]Entry, len(minimized))
		for j, f := range minimized {
			rep.Schedule[j] = entryOf(f)
		}
		return rep, nil
	}
	return rep, nil
}

// Replay re-runs a report's minimized schedule against its template and
// returns the violations observed — the deterministic repro loop.
func Replay(rep Report) ([]invariant.Violation, error) {
	sched := make([]fault.ScheduledFault, len(rep.Schedule))
	for i, e := range rep.Schedule {
		sched[i] = e.fault()
	}
	return Run(rep.Template, sched)
}

// minimize is greedy ddmin: repeatedly drop the first entry whose
// removal still reproduces a violation with the same name, until no
// single removal does. Serial and index-ordered, hence deterministic.
// Returns the minimized schedule and how many trial runs it spent.
func minimize(tpl Template, sched []fault.ScheduledFault, name string) ([]fault.ScheduledFault, int, error) {
	runs := 0
	for improved := true; improved && len(sched) > 1; {
		improved = false
		for i := range sched {
			trial := make([]fault.ScheduledFault, 0, len(sched)-1)
			trial = append(trial, sched[:i]...)
			trial = append(trial, sched[i+1:]...)
			runs++
			vs, err := Run(tpl, trial)
			if err != nil {
				return sched, runs, err
			}
			if hasViolation(vs, name) {
				sched = trial
				improved = true
				break
			}
		}
	}
	return sched, runs, nil
}

func hasViolation(vs []invariant.Violation, name string) bool {
	for _, v := range vs {
		if v.Name == name {
			return true
		}
	}
	return false
}

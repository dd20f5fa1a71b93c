// Package policysearch sweeps the policy registry over a fixed mixed
// workload and maps the Pareto frontier of the three objectives the
// paper trades off: batch completion time, energy and SLA compliance.
// Each candidate policy bundle runs the same seeded scenario — a hybrid
// cluster serving two interactive applications under diurnal load while
// a roster of batch jobs arrives — so the objective values are exact
// event tallies and integrals, not measurements.
//
// SEARCH.json is byte-deterministic: candidates fan across the
// experiments worker pool but results are assembled in grid order, no
// wall-clock data is included, and every float is rounded before
// serialization. The same grid at -parallel 1 and -parallel 8 must
// produce identical bytes (CI's policy-search-smoke step compares
// them). The frontier winner is re-run with the decision audit log
// attached, and the report embeds a digest of its decisions so a
// winning policy is explainable, not just a score.
package policysearch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Schema identifies the SEARCH.json layout.
const Schema = "hybridmr.search/v1"

// Options parameterizes a search.
type Options struct {
	// Grid is the candidate policy specs to score.
	Grid []policy.Spec
	// Seed fixes the scenario; every candidate runs the same seed, zero
	// included.
	Seed int64
	// OnPointDone, when non-nil, is called as each candidate finishes —
	// a progress hook. Candidates fan across worker goroutines, so the
	// callback may run concurrently; it must not touch the results.
	OnPointDone func()
}

// SmokeGrid is the CI-sized candidate set: the paper default plus one
// single-seam swap per registered contender and two knob sweeps. Like
// FullGrid it keeps Phase I on the paper placer — the random and static
// placers are sanity baselines, not contenders.
func SmokeGrid() []policy.Spec {
	return []policy.Spec{
		{},
		{Phase2: "fifo-p2"},
		{Phase2: "locality-p2"},
		{Phase2: "jobdriven-p2"},
		{DRM: "static-split"},
		{IPS: "throttle-first"},
		{SpecSlowdown: 0.75},
		{Overhead: 0.5},
	}
}

// FullGrid crosses every registered Phase II, DRM and IPS policy
// (Phase I stays on the paper placer — the random and static placers
// are baselines, not contenders), then appends the knob sweeps.
func FullGrid() []policy.Spec {
	var out []policy.Spec
	for _, p2 := range policy.Phase2Names() {
		for _, drm := range policy.DRMNames() {
			for _, ips := range policy.IPSNames() {
				out = append(out, policy.Spec{Phase2: p2, DRM: drm, IPS: ips})
			}
		}
	}
	for _, ov := range []float64{0.15, 0.5} {
		out = append(out, policy.Spec{Overhead: ov})
	}
	for _, sl := range []float64{0.25, 0.75} {
		out = append(out, policy.Spec{SpecSlowdown: sl})
	}
	return out
}

// RandomGrid samples n candidate specs from the registry axes with a
// seeded generator — the random half of the grid/random harness. The
// same (n, seed) always yields the same grid.
func RandomGrid(n int, seed int64) []policy.Spec {
	rng := rand.New(rand.NewSource(seed))
	pick := func(names []string) string { return names[rng.Intn(len(names))] }
	out := make([]policy.Spec, 0, n)
	for i := 0; i < n; i++ {
		spec := policy.Spec{
			Phase2: pick(policy.Phase2Names()),
			DRM:    pick(policy.DRMNames()),
			IPS:    pick(policy.IPSNames()),
		}
		if rng.Intn(2) == 0 {
			spec.Overhead = math.Round((0.1+0.5*rng.Float64())*100) / 100
		}
		if rng.Intn(2) == 0 {
			spec.SpecSlowdown = math.Round((0.2+0.6*rng.Float64())*100) / 100
		}
		out = append(out, spec)
	}
	return out
}

// Objectives are one candidate's scores; all three are minimized.
type Objectives struct {
	// MeanJCTSec is the mean batch job completion time.
	MeanJCTSec float64 `json:"mean_jct_sec"`
	// EnergyWh is the cluster's integrated energy over the run.
	EnergyWh float64 `json:"energy_wh"`
	// SLAViolationRate is the fraction of service monitoring epochs in
	// violation.
	SLAViolationRate float64 `json:"sla_violation_rate"`
}

func (o Objectives) dominates(other Objectives) bool {
	if o.MeanJCTSec > other.MeanJCTSec || o.EnergyWh > other.EnergyWh ||
		o.SLAViolationRate > other.SLAViolationRate {
		return false
	}
	return o.MeanJCTSec < other.MeanJCTSec || o.EnergyWh < other.EnergyWh ||
		o.SLAViolationRate < other.SLAViolationRate
}

// Candidate is one scored policy bundle.
type Candidate struct {
	// Policy is the canonical spec string — the candidate's identity.
	Policy string `json:"policy"`
	// Spec is the structured selection.
	Spec policy.Spec `json:"spec"`
	// Objectives are the scores.
	Objectives Objectives `json:"objectives"`
	// Jobs is how many batch jobs completed (all of them, or the run
	// errors).
	Jobs int `json:"jobs"`
	// EventsFired counts the candidate's simulation events; the policy
	// sweep sums them into the events/sec line of its summary.
	EventsFired int64 `json:"events_fired"`
	// Pareto marks frontier membership: no other candidate is at least
	// as good on every objective and better on one.
	Pareto bool `json:"pareto"`
}

// StageCount is one (stage, action) tally of the winner's audit trail.
type StageCount struct {
	Stage  string `json:"stage"`
	Action string `json:"action"`
	Count  int    `json:"count"`
}

// WinnerAudit is the decision digest of the frontier winner's re-run,
// linking the search verdict back to the audit trail that explains it.
type WinnerAudit struct {
	// Policy is the winner's canonical spec string.
	Policy string `json:"policy"`
	// Decisions is the total audited decision count.
	Decisions int `json:"decisions"`
	// ByStage tallies decisions per controller stage and action.
	ByStage []StageCount `json:"by_stage"`
	// FirstPlacement quotes the run's first Phase I decision verbatim.
	FirstPlacement string `json:"first_placement,omitempty"`
}

// Report is the deterministic body of SEARCH.json.
type Report struct {
	Seed       int64       `json:"seed"`
	Scenario   Scenario    `json:"scenario"`
	Candidates []Candidate `json:"candidates"`
	// Frontier lists the Pareto candidates' policy strings in grid
	// order.
	Frontier []string `json:"frontier"`
	// Winner digests the minimum-energy frontier point's decisions.
	Winner *WinnerAudit `json:"winner,omitempty"`
}

// Scenario describes the fixed workload every candidate ran.
type Scenario struct {
	NativePMs      int `json:"native_pms"`
	VirtualHostPMs int `json:"virtual_host_pms"`
	VMsPerHost     int `json:"vms_per_host"`
	Services       int `json:"services"`
	Jobs           int `json:"jobs"`
}

// File is the full SEARCH.json document. Unlike PERF.json there is no
// wall-clock section at all: the whole file is byte-deterministic so CI
// can compare serial and parallel runs with cmp.
type File struct {
	Schema string `json:"schema"`
	Report Report `json:"report"`
}

// Run scores every grid candidate, fanning across experiments.Workers()
// goroutines, computes the Pareto frontier, and re-runs the winner with
// the audit log attached. The returned log holds the winner's full
// decision trail (nil when the grid is empty).
func Run(opts Options) (File, *audit.Log, error) {
	scen := Scenario{
		NativePMs:      6,
		VirtualHostPMs: 6,
		VMsPerHost:     2,
		Services:       2,
		Jobs:           6,
	}
	cands, err := experiments.Map(len(opts.Grid), func(i int) (Candidate, error) {
		c, err := runCandidate(opts.Grid[i], scen, opts.Seed, nil)
		if err == nil && opts.OnPointDone != nil {
			opts.OnPointDone()
		}
		return c, err
	})
	if err != nil {
		return File{}, nil, err
	}
	markFrontier(cands)
	rep := Report{Seed: opts.Seed, Scenario: scen, Candidates: cands}
	for _, c := range cands {
		if c.Pareto {
			rep.Frontier = append(rep.Frontier, c.Policy)
		}
	}
	var winnerLog *audit.Log
	if w := pickWinner(cands); w >= 0 {
		winnerLog = audit.New(0)
		if _, err := runCandidate(cands[w].Spec, scen, opts.Seed, winnerLog); err != nil {
			return File{}, nil, fmt.Errorf("policysearch: winner re-run: %w", err)
		}
		rep.Winner = digestAudit(cands[w].Policy, winnerLog)
	}
	return File{Schema: Schema, Report: rep}, winnerLog, nil
}

// pickWinner returns the index of the minimum-energy frontier point,
// ties broken by the lexicographically smallest policy string; -1 when
// there are no candidates.
func pickWinner(cands []Candidate) int {
	best := -1
	for i, c := range cands {
		if !c.Pareto {
			continue
		}
		if best < 0 ||
			c.Objectives.EnergyWh < cands[best].Objectives.EnergyWh ||
			(c.Objectives.EnergyWh == cands[best].Objectives.EnergyWh && c.Policy < cands[best].Policy) {
			best = i
		}
	}
	return best
}

// markFrontier sets Pareto on every non-dominated candidate. Duplicate
// objective vectors are all kept: they tie, neither dominates.
func markFrontier(cands []Candidate) {
	for i := range cands {
		dominated := false
		for j := range cands {
			if i != j && cands[j].Objectives.dominates(cands[i].Objectives) {
				dominated = true
				break
			}
		}
		cands[i].Pareto = !dominated
	}
}

// digestAudit tallies a decision log per (stage, action).
func digestAudit(policyID string, log *audit.Log) *WinnerAudit {
	recs := log.Records()
	counts := make(map[StageCount]int)
	first := ""
	for _, r := range recs {
		counts[StageCount{Stage: r.Subsystem, Action: r.Action}]++
		if first == "" && r.Subsystem == "phase1" {
			first = fmt.Sprintf("%s -> %s (%s)", r.Subject, r.Decision, r.Reason)
		}
	}
	keys := make([]StageCount, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Stage != keys[j].Stage {
			return keys[i].Stage < keys[j].Stage
		}
		return keys[i].Action < keys[j].Action
	})
	w := &WinnerAudit{Policy: policyID, Decisions: len(recs), FirstPlacement: first}
	for _, k := range keys {
		k.Count = counts[StageCount{Stage: k.Stage, Action: k.Action}]
		w.ByStage = append(w.ByStage, k)
	}
	return w
}

// runCandidate runs the fixed scenario under one policy bundle: two
// interactive services under diurnal load on the virtual partition,
// with a staggered roster of batch jobs (every third job carrying a
// generous deadline, the rest exercising the overhead path), scored on
// mean JCT, integrated energy and the fraction of monitoring epochs in
// SLA violation.
func runCandidate(spec policy.Spec, scen Scenario, seed int64, log *audit.Log) (Candidate, error) {
	set, err := spec.Resolve()
	if err != nil {
		return Candidate{}, err
	}
	roster := []mapred.JobSpec{
		workload.Sort(), workload.Wcount(), workload.DistGrep(),
		workload.Kmeans(), workload.Twitter(),
	}
	arrivals := make([]scenario.Arrival, scen.Jobs)
	for i := range arrivals {
		arrivals[i] = scenario.Arrival{At: time.Duration(i) * 15 * time.Second, Spec: roster[i%len(roster)].WithInputMB(4096)}
		if i%3 == 0 {
			arrivals[i].Deadline = 90 * time.Minute
		}
	}
	out, err := scenario.Run(scenario.Spec{
		Rig: testbed.Options{
			PMs:          scen.VirtualHostPMs,
			NativePMs:    scen.NativePMs,
			VMsPerPM:     scen.VMsPerHost,
			Seed:         seed,
			MapredConfig: mapred.Config{SlotCaps: true, CapacityAware: true},
			Obs:          obs.Sinks{Audit: log},
		},
		System:           core.Config{Policies: set},
		Services:         scenario.Diurnal(scen.Services, 1200, 600, seed),
		Arrivals:         arrivals,
		RecorderInterval: 30 * time.Second,
		Horizon:          4 * time.Hour,
		UntilDone:        true,
	})
	if err != nil {
		return Candidate{}, fmt.Errorf("policysearch: %s: %w", spec.String(), err)
	}
	return Candidate{
		Policy: spec.String(),
		Spec:   spec,
		Objectives: Objectives{
			MeanJCTSec:       round3(stats.Mean(out.JCTs)),
			EnergyWh:         round3(out.EnergyWh),
			SLAViolationRate: round3(out.SLAViolationRate()),
		},
		Jobs:        len(out.JCTs),
		EventsFired: int64(out.EventsFired),
	}, nil
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

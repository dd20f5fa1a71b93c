package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// minReps is the fewest untraced repetitions an end-to-end run makes, and
// minCycles the fewest untraced/traced cycles a traced run makes, however
// short the window: enough for a median and a repeat check. setupReps is
// how many extra set-ups an end-to-end run times before its window, so
// that setup_s is a median of many samples even where a repetition is
// long.
const (
	minReps   = 3
	minCycles = 2
	setupReps = 10
)

// tally counts operations attempted and failed, naming each failure.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) check(ok bool, what string) {
	t.attempted++
	if !ok {
		t.failed++
		t.failures = append(t.failures, what)
	}
}

// measure repeats the plan until the window is spent and reduces the
// repetitions to the run's metrics. An untraced run repeats the workload
// as is; a traced run repeats cycles of one untraced and one traced
// repetition, plus one with the sinks removed when the workload has sinks.
func measure(p *plan, led *ledgerSpec, window time.Duration, traced bool, progress io.Writer) (*report, error) {
	modes := []repMode{{}}
	least := minReps
	if traced {
		modes = append(modes, repMode{traced: true})
		if p.sinks {
			modes = append(modes, repMode{sinksOff: true})
		}
		least = minCycles
	}
	reps := make([][]*repResult, len(modes))
	start := time.Now()
	var setups []float64
	if !traced {
		for i := 0; i < setupReps; i++ {
			r, err := runRep(p, repMode{setupOnly: true})
			if err != nil {
				return nil, err
			}
			setups = append(setups, r.setupS)
		}
	}
	var cycle time.Duration
	for n := 0; n < least || time.Since(start)+cycle <= window; n++ {
		c0 := time.Now()
		for i, mode := range modes {
			r, err := runRep(p, mode)
			if err != nil {
				return nil, err
			}
			reps[i] = append(reps[i], r)
		}
		cycle = time.Since(c0)
		fmt.Fprintf(progress, "perfbench: %s seed %d cycle %d: %.3fs\n", p.name, p.seed, n+1, cycle.Seconds())
	}

	var t tally
	// Every repetition must complete its jobs and pass its end-of-run
	// checks, and its simulated outcome must repeat exactly. Removing the
	// sinks removes the invariant checker's sweep events, so those
	// repetitions are compared among themselves.
	for i, mode := range modes {
		ref := reps[0][0].sim
		if mode.sinksOff {
			ref = reps[i][0].sim
		}
		for n, r := range reps[i] {
			t.attempted += r.sim.jobs
			t.failed += r.sim.jobs - r.sim.done
			if r.sim.done < r.sim.jobs {
				t.failures = append(t.failures, fmt.Sprintf("%d of %d jobs did not complete", r.sim.jobs-r.sim.done, r.sim.jobs))
			}
			for _, name := range sortedKeys(r.checks) {
				what := name
				if name == "invariants" {
					what += ": " + r.firstViolation
				}
				t.check(r.checks[name], what)
			}
			if i > 0 || n > 0 {
				t.check(r.sim == ref, fmt.Sprintf("simulated outcome of %s repetition %d differs from the first", modeName(mode), n+1))
			}
		}
	}

	untraced := reps[0]
	sim := untraced[0].sim
	led0 := ledger{
		Workload: p.name, Seed: p.seed, Traced: traced,
		Reps: map[string]int{}, Wall: map[string]float64{},
		Details: map[string]any{
			"jobs":          sim.jobs,
			"jct_tail_pct":  sim.jctTailPct,
			"sla_epochs":    sim.slaEpochs,
			"sim_end_s":     sim.simEnd.Seconds(),
			"events_fired":  sim.fired,
			"fault_summary": sim.faultSummary,
		},
	}
	for i, mode := range modes {
		led0.Reps[modeName(mode)] = len(reps[i])
		led0.Wall[modeName(mode)] = median(pick(reps[i], func(r *repResult) float64 { return r.wallS }))
	}
	rep := &report{ledger: led0, result: result{Metrics: map[string]metric{}}}

	if !traced {
		setups = append(setups, pick(untraced, func(r *repResult) float64 { return r.setupS })...)
		rep.ledger.Details["setup_samples"] = len(setups)
		vals := map[string]float64{
			"wall_s":          median(pick(untraced, func(r *repResult) float64 { return r.wallS })),
			"cpu_s":           median(pick(untraced, func(r *repResult) float64 { return r.cpuS })),
			"setup_s":         median(setups),
			"alloc_mb":        median(pick(untraced, func(r *repResult) float64 { return heapMB(r.allocB) })),
			"heap_live_mb":    median(pick(untraced, func(r *repResult) float64 { return heapMB(r.heapLiveB) })),
			"sim_jct_p50_s":   sim.jctP50,
			"sim_jct_tail_s":  sim.jctTail,
			"sim_energy_wh":   sim.energyWh,
			"sim_sla_ok_frac": sim.slaOKFrac,
		}
		for _, m := range endToEnd {
			rep.result.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		tracedReps := reps[1]
		perRep := make([]map[string]float64, len(tracedReps))
		selfs := map[string][]float64{}
		var calls map[string]int64
		for n, r := range tracedReps {
			m, run, fails := tracedLayers(r)
			t.check(len(fails) == 0, fmt.Sprintf("traced repetition %d: %v", n+1, fails))
			perRep[n] = m
			for name, s := range run.self {
				selfs[name] = append(selfs[name], s)
			}
			if n == 0 {
				calls = run.calls
			} else {
				same := true
				for _, k := range countKeys {
					same = same && m[k] == perRep[0][k]
				}
				t.check(same, fmt.Sprintf("per-layer counts of traced repetition %d differ from the first", n+1))
			}
		}
		tracedWall := median(pick(tracedReps, func(r *repResult) float64 { return r.wallS }))
		untracedWall := median(pick(untraced, func(r *repResult) float64 { return r.wallS }))
		vals := map[string]float64{
			"trace_overhead_frac": tracedWall/untracedWall - 1,
			"obs.sinks_s":         0,
		}
		if p.sinks {
			vals["obs.sinks_s"] = untracedWall - median(pick(reps[2], func(r *repResult) float64 { return r.wallS }))
		}
		for _, l := range led.Layers {
			if _, ok := vals[l.Name]; ok {
				continue
			}
			xs := make([]float64, len(perRep))
			for n, m := range perRep {
				v, ok := m[l.Name]
				if !ok {
					return nil, fmt.Errorf("per-layer metric %s is not computed", l.Name)
				}
				xs[n] = v
			}
			vals[l.Name] = median(xs)
		}
		for _, l := range led.Layers {
			rep.result.Metrics[l.Name] = metric{vals[l.Name], l.Unit}
		}
		for _, name := range led.Workloads[p.name].Zero {
			t.check(vals[name] == 0, fmt.Sprintf("bypass prediction %s = 0 does not hold (%g)", name, vals[name]))
		}
		rep.ledger.Layers = map[string]layer{}
		for name, xs := range selfs {
			rep.ledger.Layers[name] = layer{SelfS: median(xs), Calls: calls[name]}
		}
		rep.ledger.Counters = tracedReps[0].runC
		sub := append([]float64(nil), tracedReps[0].submitUS...)
		sort.Float64s(sub)
		rep.ledger.Details["submit_samples"] = len(sub)
		rep.ledger.Details["submit_tail_pct"], _ = tail(sub)
	}
	rep.ledger.Failures = t.failures
	if rep.ledger.Failures == nil {
		rep.ledger.Failures = []string{}
	}
	rep.result.Attempted, rep.result.Failed = t.attempted, t.failed
	rep.result.Correct = t.failed == 0
	return rep, nil
}

func modeName(m repMode) string {
	switch {
	case m.traced:
		return "traced"
	case m.sinksOff:
		return "sinks_off"
	}
	return "untraced"
}

func pick(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package experiments

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// ExtFaults measures the cost of fault tolerance: Sort completion time
// under increasing machine-crash rates (each crash repaired two minutes
// later), on a native cluster and on the paper's virtualized layout. The
// axis is an accelerated per-machine rate — real MTBFs are months, far
// beyond a single job's span, so fault-injection studies compress them —
// and the cluster-wide rate is the per-machine rate times the fleet size.
// Every cell uses the same fault seed, so the curves are comparable and
// any run is replayable.
func ExtFaults() (*Outcome, error) {
	const faultSeed = 1231
	const pms = 8
	rates := []float64{0, 2, 4, 8} // crashes per machine-hour
	pool := newMetricsPool()
	var paths critPaths
	run := func(virtual bool, rate float64) (float64, error) {
		// The safety-invariant checker is always on here: this is the one
		// figure whose whole point is recovery, so a broken recovery path
		// must fail the experiment (and with it the -check fidelity gate)
		// by name rather than skew the JCT curve silently.
		inv := invariant.New()
		opts := testbed.Options{PMs: pms, Seed: 1237, Obs: pool.sinks(), Invariants: inv}
		if virtual {
			opts.VMsPerPM = 2
		}
		if rate > 0 {
			opts.Faults = &fault.Options{
				Seed: faultSeed,
				Profile: &fault.Profile{
					PMCrashPerHour: rate * pms,
					RepairAfter:    2 * time.Minute,
					Horizon:        30 * time.Minute,
				},
			}
		}
		rig, err := testbed.New(opts)
		if err != nil {
			return 0, err
		}
		res, err := rig.RunJob(workload.Sort().WithInputMB(scaledMB(8 * workload.GB)))
		if err != nil {
			return 0, err
		}
		if got := rig.FS.UnderReplicated(); got != 0 {
			return 0, fmt.Errorf("ext-faults: %d blocks under-replicated after recovery", got)
		}
		if vs := inv.Final(); len(vs) > 0 {
			return 0, fmt.Errorf("ext-faults: safety invariant violated: %s", vs[0])
		}
		mode := "native"
		if virtual {
			mode = "virtual"
		}
		paths.add(fmt.Sprintf("%s-%.0f-crashes", mode, rate), res.CritPath)
		return res.JCT.Seconds(), nil
	}
	out := &Outcome{Table: &Table{
		ID:      "ext-faults",
		Title:   "Sort JCT (s) vs accelerated machine-crash rate (repair after 2 min)",
		Columns: []string{"crashes/machine-hour", "native", "virtual (2 VMs/PM)"},
	}}
	type faultPair struct{ nat, virt float64 }
	results, err := Map(len(rates), func(i int) (faultPair, error) {
		nat, err := run(false, rates[i])
		if err != nil {
			return faultPair{}, err
		}
		virt, err := run(true, rates[i])
		if err != nil {
			return faultPair{}, err
		}
		return faultPair{nat: nat, virt: virt}, nil
	})
	if err != nil {
		return nil, err
	}
	var base, worst [2]float64
	for i, rate := range rates {
		nat, virt := results[i].nat, results[i].virt
		if rate == 0 {
			base = [2]float64{nat, virt}
		}
		worst = [2]float64{nat, virt}
		out.Table.AddCells(Str(fmt.Sprintf("%.0f", rate)), F1(nat), F1(virt))
	}
	out.Notef("at 8 crashes/machine-hour Sort slows %.0f%% native and %.0f%% virtual; every job still completes and all surviving blocks heal to target replication (fault seed %d)",
		(worst[0]-base[0])/base[0]*100, (worst[1]-base[1])/base[1]*100, faultSeed)
	out.Scalar("slowdown_native", (worst[0]-base[0])/base[0])
	out.Scalar("slowdown_virtual", (worst[1]-base[1])/base[1])
	out.Metrics = pool.snapshot()
	out.CritPaths = paths.m
	return out, nil
}

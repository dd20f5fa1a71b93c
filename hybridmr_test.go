package hybridmr_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	hybridmr "repro"
)

func TestHybridClusterEndToEnd(t *testing.T) {
	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
		NativePMs:      4,
		VirtualHostPMs: 4,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	svc, err := dc.DeployService(hybridmr.RUBiS())
	if err != nil {
		t.Fatal(err)
	}
	svc.SetClients(1500)

	var done int
	job, placement, err := dc.SubmitJob(hybridmr.Sort().WithInputMB(1024), 0, func(*hybridmr.Job) { done++ })
	if err != nil {
		t.Fatal(err)
	}
	if placement != hybridmr.PlacedNative && placement != hybridmr.PlacedVirtual {
		t.Fatalf("placement = %v", placement)
	}
	rec := dc.NewRecorder(30 * time.Second)
	dc.RunFor(2 * time.Hour)
	rec.Stop()
	if !job.Done() || done != 1 {
		t.Fatalf("job incomplete (done=%v callbacks=%d)", job.Done(), done)
	}
	if job.JCT() <= 0 {
		t.Error("JCT not recorded")
	}
	if rec.EnergyWh() <= 0 {
		t.Error("no energy recorded")
	}
	if svc.SLAViolated() {
		t.Errorf("service violating SLA at steady state: %.0f ms", svc.LatencyMs())
	}
	if dc.Now() != 2*time.Hour {
		t.Errorf("Now() = %v", dc.Now())
	}
}

func TestHybridClusterValidation(t *testing.T) {
	if _, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	// Native-only cluster has nowhere to host services.
	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{NativePMs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if _, err := dc.DeployService(hybridmr.RUBiS()); err == nil {
		t.Error("service deployed without a virtual partition")
	}
	job, placement, err := dc.SubmitJob(hybridmr.PiEst(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if placement != hybridmr.PlacedNative {
		t.Errorf("native-only placement = %v", placement)
	}
	dc.RunUntilIdle()
	if !job.Done() {
		t.Error("job incomplete")
	}
}

func TestVanillaHadoopBaselineIsSlower(t *testing.T) {
	run := func(vanilla bool) float64 {
		dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
			VirtualHostPMs: 4,
			Seed:           9,
			VanillaHadoop:  vanilla,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer dc.Close()
		job, _, err := dc.SubmitJob(hybridmr.Sort().WithInputMB(2048), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		dc.RunUntilIdle()
		if !job.Done() {
			t.Fatal("job incomplete")
		}
		return job.JCT().Seconds()
	}
	vanilla := run(true)
	managed := run(false)
	if managed >= vanilla {
		t.Errorf("HybridMR (%.0fs) not faster than vanilla Hadoop (%.0fs)", managed, vanilla)
	}
}

func TestTopologyAndInvariantsFacade(t *testing.T) {
	inv := hybridmr.NewInvariantChecker()
	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
		NativePMs:      4,
		VirtualHostPMs: 4,
		Racks:          2,
		PowerDomains:   2,
		Seed:           21,
		Invariants:     inv,
		Faults: &hybridmr.FaultOptions{
			Schedule: []hybridmr.ScheduledFault{
				{At: 90 * time.Second, Kind: hybridmr.FaultNetPartition, Target: "rack-1", Duration: 45 * time.Second},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	// Both partitions stripe into the same rack and power-domain labels.
	if got := dc.Cluster.Racks(); len(got) != 2 {
		t.Fatalf("Racks() = %v, want 2 labels", got)
	}
	if got := dc.Cluster.PowerDomains(); len(got) != 2 {
		t.Fatalf("PowerDomains() = %v, want 2 labels", got)
	}
	job, _, err := dc.SubmitJob(hybridmr.Sort().WithInputMB(1024), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dc.RunFor(time.Hour)
	if !job.Done() {
		t.Fatal("job incomplete after partition healed")
	}
	if vs := inv.Final(); len(vs) > 0 {
		t.Fatalf("invariant violated: %s", vs[0])
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	exps := hybridmr.Experiments()
	if len(exps) != 25 {
		t.Fatalf("registry has %d experiments, want 25 (every figure)", len(exps))
	}
	seen := make(map[string]bool)
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := hybridmr.ExperimentByID(e.ID); !ok {
			t.Errorf("ByID(%s) failed", e.ID)
		}
	}
	if _, ok := hybridmr.ExperimentByID("fig99"); ok {
		t.Error("ByID accepted an unknown id")
	}
}

// seamRun drives one hybrid deployment under a policy set (nil = the
// paper's defaults) and returns its decision log and Phase I placements.
// Two jobs go through Phase I; two more go straight to each partition's
// JobTracker, so both partitions' slot schedulers see competing jobs.
// The virtual partition hosts a loaded RUBiS, so the DRM and the IPS
// both act.
func seamRun(t *testing.T, set *hybridmr.PolicySet) (*hybridmr.AuditLog, []hybridmr.Placement) {
	t.Helper()
	log := hybridmr.NewAuditLog(0)
	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
		NativePMs: 2, VirtualHostPMs: 4, VMsPerHost: 2, Seed: 3, Audit: log,
		Config: hybridmr.SystemConfig{Policies: set},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	svc, err := dc.DeployService(hybridmr.RUBiS())
	if err != nil {
		t.Fatal(err)
	}
	svc.SetClients(3000)
	var placements []hybridmr.Placement
	for _, spec := range []hybridmr.JobSpec{hybridmr.Twitter().WithInputMB(2048), hybridmr.PiEst()} {
		_, p, err := dc.SubmitJob(spec, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		placements = append(placements, p)
	}
	for _, jt := range []*hybridmr.JobTracker{dc.NativeJT, dc.VirtualJT} {
		for _, spec := range []hybridmr.JobSpec{hybridmr.Kmeans().WithInputMB(1024), hybridmr.Wcount().WithInputMB(1024)} {
			if _, err := jt.Submit(spec, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	dc.RunFor(40 * time.Minute)
	return log, placements
}

// mapsInSubmissionOrder reports whether the first-attempt map launches
// on trackers named with prefix went to jobs in submission order — what
// FIFO slot assignment does and Fair sharing does not. Job IDs count
// submissions per JobTracker and end each attempt's job key.
func mapsInSubmissionOrder(t *testing.T, log *hybridmr.AuditLog, prefix string) bool {
	t.Helper()
	last, n := -1, 0
	for _, r := range log.Records() {
		if r.Subsystem != "mapred" || r.Action != "assign" || !strings.HasPrefix(r.Decision, prefix) ||
			!strings.Contains(r.Subject, "/map-") || strings.HasPrefix(r.Reason, "speculative") {
			continue
		}
		key, _, _ := strings.Cut(r.Subject, "/")
		id, err := strconv.Atoi(key[strings.LastIndex(key, "-")+1:])
		if err != nil {
			t.Fatalf("attempt %q: %v", r.Subject, err)
		}
		if id < last {
			return false
		}
		last, n = id, n+1
	}
	if n == 0 {
		t.Fatalf("no map launches on %s* trackers", prefix)
	}
	return true
}

// TestPolicySetReachesEverySeam: a policy set handed to NewHybridCluster
// through ClusterSpec.Config.Policies reaches Phase I, the DRM, the IPS
// and the slot schedulers of both partitions. Each seam is observed by
// its effect on the decision log, against a paper-default run of the
// same scenario that shows the effect's absence.
func TestPolicySetReachesEverySeam(t *testing.T) {
	spec, err := hybridmr.ParsePolicySpec("p1=static-virtual,drm=static-split,ips=throttle-first,p2=fifo-p2")
	if err != nil {
		t.Fatal(err)
	}
	set, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	paper, _ := seamRun(t, nil)
	chosen, placements := seamRun(t, set)

	count := func(log *hybridmr.AuditLog, subsystem, action string) int {
		return len(log.Filter(func(r hybridmr.AuditRecord) bool {
			return r.Subsystem == subsystem && r.Action == action
		}))
	}
	staticPlaced := func(log *hybridmr.AuditLog) int {
		return len(log.Filter(func(r hybridmr.AuditRecord) bool {
			return r.Subsystem == "phase1" && strings.HasPrefix(r.Reason, "static placement")
		}))
	}

	// Phase I: the static placer decides every placement.
	if got := staticPlaced(chosen); got != len(placements) {
		t.Errorf("p1: %d of %d placements by the static placer", got, len(placements))
	}
	for i, p := range placements {
		if p != hybridmr.PlacedVirtual {
			t.Errorf("p1: job %d placed %v under static-virtual", i, p)
		}
	}
	if staticPlaced(paper) != 0 {
		t.Error("p1: the paper's placer gave a static-placement reason")
	}
	// DRM: static-split shares memory pressure instead of deferring.
	if n := count(paper, "drm", "defer"); n == 0 {
		t.Fatal("drm: the paper's DRM deferred nothing; the scenario cannot tell the policies apart")
	}
	if n := count(chosen, "drm", "defer"); n != 0 {
		t.Errorf("drm: %d deferrals under static-split", n)
	}
	// IPS: throttle-first never relocates.
	if n := count(paper, "ips", "relocate"); n == 0 {
		t.Fatal("ips: the paper's IPS relocated nothing; the scenario cannot tell the policies apart")
	}
	if n := count(chosen, "ips", "relocate"); n != 0 {
		t.Errorf("ips: %d relocations under throttle-first", n)
	}
	if count(chosen, "ips", "throttle") == 0 {
		t.Error("ips: throttle-first throttled nothing")
	}
	// Phase II: FIFO on both partitions' JobTrackers.
	for _, part := range []struct{ name, prefix string }{{"native", "native-"}, {"virtual", "vm-"}} {
		if !mapsInSubmissionOrder(t, chosen, part.prefix) {
			t.Errorf("p2: %s partition did not serve maps in submission order under fifo-p2", part.name)
		}
		if mapsInSubmissionOrder(t, paper, part.prefix) {
			t.Errorf("p2: %s partition served maps in submission order under the paper's Fair scheduler", part.name)
		}
	}
}

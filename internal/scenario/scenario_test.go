package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// smallSpec is a hybrid rig with one traced and one fixed-load service
// and three staggered jobs, one carrying a deadline.
func smallSpec() Spec {
	return Spec{
		Rig: testbed.Options{
			PMs: 4, NativePMs: 2, VMsPerPM: 2, Seed: 3,
			MapredConfig: mapred.Config{SlotCaps: true, CapacityAware: true},
		},
		Services: []Service{
			{Spec: workload.RUBiS(), Trace: &workload.DiurnalTrace{Base: 1200, Amplitude: 600, Seed: 3}},
			{Spec: workload.TPCW(), Clients: 1500},
		},
		Arrivals: []Arrival{
			{At: 0, Spec: workload.Sort().WithInputMB(512), Deadline: time.Hour},
			{At: time.Minute, Spec: workload.Wcount().WithInputMB(512)},
			{At: 2 * time.Minute, Spec: workload.DistGrep().WithInputMB(512)},
		},
		RecorderInterval: 30 * time.Second,
		Horizon:          4 * time.Hour,
		UntilDone:        true,
	}
}

// digest is an Outcome with each job reduced to its name and JCT.
type digest struct {
	Jobs []string
	Out  Outcome
}

func digestOf(out Outcome) digest {
	d := digest{Out: out}
	for _, j := range out.Jobs {
		d.Jobs = append(d.Jobs, fmt.Sprintf("%s-%d %v", j.Spec.Name, j.ID, j.JCT()))
	}
	d.Out.Jobs = nil
	return d
}

func TestRunIsDeterministic(t *testing.T) {
	first, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(first.JCTs) != 3 || len(first.Jobs) != 3 {
		t.Fatalf("%d jobs submitted, %d completed; want 3 and 3", len(first.Jobs), len(first.JCTs))
	}
	if first.EnergyWh <= 0 || len(first.Latencies) == 0 || first.EventsFired == 0 {
		t.Fatalf("empty outcome: %+v", first)
	}
	if a, b := digestOf(first), digestOf(second); !reflect.DeepEqual(a, b) {
		t.Errorf("same spec, different outcomes:\n%+v\n%+v", a, b)
	}
}

func TestArrivalsSubmittedOnceAtTheirTimesInOrder(t *testing.T) {
	suite, err := workload.GenerateSuite(workload.SuiteSpec{
		Mix:              workload.DefaultMix(512),
		MeanInterarrival: time.Minute,
		Horizon:          20 * time.Minute,
		Seed:             6,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]Arrival, len(suite))
	for i, a := range suite {
		arrivals[i] = Arrival{At: a.At, Spec: a.Spec}
	}
	// Two arrivals at one instant must still go in list order.
	arrivals[1].At = arrivals[0].At
	log := audit.New(0)
	spec := smallSpec()
	spec.Rig.Obs = obs.Sinks{Audit: log}
	spec.Arrivals = arrivals
	spec.UntilDone = false
	spec.Horizon = 30 * time.Minute
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	places := log.Filter(func(r audit.Record) bool { return r.Subsystem == "phase1" && r.Action == "place" })
	if len(out.Jobs) != len(arrivals) || len(places) != len(arrivals) {
		t.Fatalf("%d arrivals, %d jobs, %d placements", len(arrivals), len(out.Jobs), len(places))
	}
	for i, a := range arrivals {
		j := out.Jobs[i]
		if j.Spec.Name != a.Spec.Name || j.Spec.InputMB != a.Spec.InputMB {
			t.Errorf("job %d is %s (%.0f MB), want %s (%.0f MB)", i, j.Spec.Name, j.Spec.InputMB, a.Spec.Name, a.Spec.InputMB)
		}
		if want := fmt.Sprintf("%s-%d", j.Spec.Name, j.ID); places[i].Subject != want || places[i].At != a.At {
			t.Errorf("placement %d: %s at %v, want %s at %v", i, places[i].Subject, places[i].At, want, a.At)
		}
	}
}

func TestFailedSubmissionEndsTheRun(t *testing.T) {
	for _, untilDone := range []bool{true, false} {
		spec := smallSpec()
		spec.UntilDone = untilDone
		spec.Horizon = 100 * time.Hour
		spec.Arrivals[2].Spec.Reduces = -1
		out, err := Run(spec)
		if err == nil {
			t.Fatalf("until done %v: invalid job accepted", untilDone)
		}
		if msg := err.Error(); !strings.Contains(msg, "DistGrep") || !strings.Contains(msg, "2m0s") {
			t.Errorf("until done %v: error %q does not name the job and its time", untilDone, msg)
		}
		// The run halts within the failing arrival's minute: at most eight
		// epochs of two services, not the horizon's 24,000 epochs.
		if n := len(out.Latencies); n > 2*8 {
			t.Errorf("until done %v: %d samples taken; the run went on past the failure", untilDone, n)
		}
	}
}

func TestFixedHorizonSamplesEveryServiceEachEpoch(t *testing.T) {
	spec := smallSpec()
	spec.Services = append(spec.Services, Service{Spec: workload.Olio(), Clients: 900})
	spec.Arrivals = nil
	spec.UntilDone = false
	spec.Horizon = time.Hour
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Services) * int(spec.Horizon/epoch); len(out.Latencies) != want {
		t.Errorf("%d SLA samples, want %d services x %d epochs = %d",
			len(out.Latencies), len(spec.Services), spec.Horizon/epoch, want)
	}
	if out.SLAViolations > len(out.Latencies) {
		t.Errorf("%d violations in %d epochs", out.SLAViolations, len(out.Latencies))
	}
}

package policy

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mapred"
	"repro/internal/workload"
)

// seams lists each policy seam's -policy key, its registered names and
// a Spec selecting one name at that seam.
var seams = []struct {
	key   string
	names []string
	spec  func(name string) Spec
}{
	{"p1", Phase1Names(), func(n string) Spec { return Spec{Phase1: n} }},
	{"drm", DRMNames(), func(n string) Spec { return Spec{DRM: n} }},
	{"ips", IPSNames(), func(n string) Spec { return Spec{IPS: n} }},
	{"p2", Phase2Names(), func(n string) Spec { return Spec{Phase2: n} }},
}

// TestRegistryRoundTrip resolves every registered name of every seam
// and checks it renders back as <key>=<name> — the property the -policy
// flag and SEARCH.json identity strings rest on.
func TestRegistryRoundTrip(t *testing.T) {
	for _, seam := range seams {
		if len(seam.names) < 2 {
			t.Errorf("%s: %d policies registered, want an alternative to the paper's", seam.key, len(seam.names))
		}
		for _, name := range seam.names {
			spec := seam.spec(name)
			set, err := spec.Resolve()
			if err != nil {
				t.Fatalf("%s=%s: %v", seam.key, name, err)
			}
			if set.NewPlacer(Phase1Env{}) == nil || set.scheduler == nil {
				t.Errorf("%s=%s resolves to a nil placer or scheduler", seam.key, name)
			}
			if got := spec.String(); !strings.Contains(","+got+",", ","+seam.key+"="+name+",") {
				t.Errorf("%s=%s renders as %q", seam.key, name, got)
			}
		}
	}
}

// TestUnknownNamesError checks that an unknown name at any seam fails
// to resolve, naming the seam and every registered alternative.
func TestUnknownNamesError(t *testing.T) {
	for _, seam := range seams {
		want := fmt.Sprintf("policy: unknown %s policy \"nope\" (registered: %s)", seam.key, strings.Join(seam.names, ", "))
		if _, err := seam.spec("nope").Resolve(); err == nil || err.Error() != want {
			t.Errorf("%s unknown: %v, want %q", seam.key, err, want)
		}
	}
}

// TestDefaultMatchesPaperKnobs pins the paper rows the default set
// resolves to — the values the golden byte comparisons in ci/golden/
// depend on.
func TestDefaultMatchesPaperKnobs(t *testing.T) {
	set := Default()
	if set.DRM != (DRMParams{Deferral: true}) {
		t.Errorf("default DRM params = %+v", set.DRM)
	}
	if set.RelocateBelow != 0.6 {
		t.Errorf("default IPS relocation threshold = %v", set.RelocateBelow)
	}
	p1, ok := set.NewPlacer(Phase1Env{}).(*ProfilingPlacer)
	if !ok || p1.OverheadThreshold != 0 {
		t.Errorf("default placer = %#v", set.NewPlacer(Phase1Env{}))
	}
	sched, cfg := set.Phase2Setup(mapred.Config{})
	if sched.Name() != "fair" {
		t.Errorf("default Phase II scheduler = %q", sched.Name())
	}
	if cfg.SpeculationSlowdown != 0 {
		t.Errorf("default speculation slowdown = %v", cfg.SpeculationSlowdown)
	}
}

// TestParseSpec covers the -policy syntax: happy path, canonical
// rendering, knob overrides, and up-front rejection of unknown keys and
// names.
func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("p2=jobdriven-p2, drm=static-split, p1.overhead=0.4")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Phase2 != "jobdriven-p2" || spec.DRM != "static-split" || spec.Overhead != 0.4 {
		t.Errorf("parsed %+v", spec)
	}
	want := "p1=paper-p1,drm=static-split,ips=paper-ips,p2=jobdriven-p2,p1.overhead=0.4"
	if got := spec.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	set, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if p1 := set.NewPlacer(Phase1Env{}).(*ProfilingPlacer); p1.OverheadThreshold != 0.4 {
		t.Errorf("overhead override not applied: %+v", p1)
	}

	if _, err := ParseSpec("p2=warp-speed"); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown name error = %v", err)
	}
	if _, err := ParseSpec("flux=9"); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := ParseSpec("p1.overhead=-1"); err == nil {
		t.Error("negative overhead accepted")
	}

	// The slowdown override survives wrapping a non-paper Phase II.
	spec2, err := ParseSpec("p2=fifo-p2,p2.slowdown=0.3")
	if err != nil {
		t.Fatalf("ParseSpec slowdown: %v", err)
	}
	set2, err := spec2.Resolve()
	if err != nil {
		t.Fatalf("Resolve slowdown: %v", err)
	}
	if sched, cfg := set2.Phase2Setup(mapred.Config{}); sched.Name() != "fifo" || cfg.SpeculationSlowdown != 0.3 {
		t.Errorf("fifo-p2,p2.slowdown=0.3: scheduler %q, slowdown %v", sched.Name(), cfg.SpeculationSlowdown)
	}

	// The paper's Phase II takes the slowdown the same way: the knob
	// reaches the straggler detector and the canonical string, and the
	// policy still answers to its registry name.
	spec3, err := ParseSpec("p2.slowdown=0.75")
	if err != nil {
		t.Fatalf("ParseSpec paper slowdown: %v", err)
	}
	set3, err := spec3.Resolve()
	if err != nil {
		t.Fatalf("Resolve paper slowdown: %v", err)
	}
	if _, cfg := set3.Phase2Setup(mapred.Config{}); cfg.SpeculationSlowdown != 0.75 {
		t.Errorf("paper-p2 slowdown override = %v", cfg.SpeculationSlowdown)
	}
	want = "p1=paper-p1,drm=paper-drm,ips=paper-ips,p2=paper-p2,p2.slowdown=0.75"
	if got := spec3.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestPhase2Setup checks the one Phase II translation: the set's
// scheduler, its slowdown filling only a zero config field, and the
// paper default for a nil set.
func TestPhase2Setup(t *testing.T) {
	var nilSet *Set
	sched, cfg := nilSet.Phase2Setup(mapred.Config{})
	if sched.Name() != "fair" || cfg != (mapred.Config{}) {
		t.Errorf("nil set: %q, %+v", sched.Name(), cfg)
	}
	set, err := Spec{Phase2: "fifo-p2", SpecSlowdown: 0.3}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sched, cfg = set.Phase2Setup(mapred.Config{})
	if sched.Name() != "fifo" || cfg.SpeculationSlowdown != 0.3 {
		t.Errorf("fifo-p2,p2.slowdown=0.3: %q, slowdown %v", sched.Name(), cfg.SpeculationSlowdown)
	}
	if _, cfg = set.Phase2Setup(mapred.Config{SpeculationSlowdown: 0.6}); cfg.SpeculationSlowdown != 0.6 {
		t.Errorf("explicit config slowdown overwritten: %v", cfg.SpeculationSlowdown)
	}
}

func TestRandomAndStaticPlacers(t *testing.T) {
	r := NewRandomPlacer(3)
	counts := map[Placement]int{}
	for i := 0; i < 100; i++ {
		p, reason, _, err := r.Place(workload.PiEst(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if reason != "random baseline" {
			t.Errorf("random placer reason %q", reason)
		}
		counts[p]++
	}
	if counts[PlacedNative] < 20 || counts[PlacedVirtual] < 20 {
		t.Errorf("random placer skewed: %v", counts)
	}
	for _, want := range []Placement{PlacedNative, PlacedVirtual} {
		got, reason, _, err := StaticPlacer(want).Place(workload.Sort(), 0)
		if err != nil || got != want || reason != "static placement" {
			t.Errorf("StaticPlacer(%v) = %v, %q, %v", want, got, reason, err)
		}
	}
}

// TestEmptySpecIsDefault checks the zero Spec resolves to the paper
// names on every seam.
func TestEmptySpecIsDefault(t *testing.T) {
	want := "p1=paper-p1,drm=paper-drm,ips=paper-ips,p2=paper-p2"
	if got := (Spec{}).String(); got != want {
		t.Errorf("Spec{}.String() = %q, want %q", got, want)
	}
}

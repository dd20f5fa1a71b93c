package policy

import (
	"strings"
	"testing"

	"repro/internal/mapred"
	"repro/internal/workload"
)

// TestRegistryRoundTrip constructs every registered policy by name and
// checks the constructed policy answers to that name — the property the
// -policy flag and SEARCH.json identity strings rest on.
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range Phase1Names() {
		p, err := NewPhase1(name)
		if err != nil {
			t.Fatalf("NewPhase1(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPhase1(%q).Name() = %q", name, p.Name())
		}
	}
	for _, name := range DRMNames() {
		p, err := NewDRM(name)
		if err != nil {
			t.Fatalf("NewDRM(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewDRM(%q).Name() = %q", name, p.Name())
		}
	}
	for _, name := range IPSNames() {
		p, err := NewIPS(name)
		if err != nil {
			t.Fatalf("NewIPS(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewIPS(%q).Name() = %q", name, p.Name())
		}
	}
	for _, name := range Phase2Names() {
		p, err := NewPhase2(name)
		if err != nil {
			t.Fatalf("NewPhase2(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPhase2(%q).Name() = %q", name, p.Name())
		}
		if p.NewScheduler() == nil {
			t.Errorf("NewPhase2(%q).NewScheduler() = nil", name)
		}
	}
}

// TestUnknownNamesError checks every seam rejects unregistered names
// and lists the registered alternatives in the error.
func TestUnknownNamesError(t *testing.T) {
	if _, err := NewPhase1("nope"); err == nil || !strings.Contains(err.Error(), "paper-p1") {
		t.Errorf("NewPhase1 unknown: %v", err)
	}
	if _, err := NewDRM("nope"); err == nil || !strings.Contains(err.Error(), "paper-drm") {
		t.Errorf("NewDRM unknown: %v", err)
	}
	if _, err := NewIPS("nope"); err == nil || !strings.Contains(err.Error(), "paper-ips") {
		t.Errorf("NewIPS unknown: %v", err)
	}
	if _, err := NewPhase2("nope"); err == nil || !strings.Contains(err.Error(), "paper-p2") {
		t.Errorf("NewPhase2 unknown: %v", err)
	}
}

// TestDefaultMatchesPaperKnobs pins the default set to the hard-coded
// controller parameters the policy extraction replaced — the values the
// golden byte comparisons in ci/golden/ depend on.
func TestDefaultMatchesPaperKnobs(t *testing.T) {
	set := Default()
	if got := set.DRM.Params(); got != (DRMParams{Deferral: true, HogTrimAbove: 1.5, HogTrimTo: 1.2}) {
		t.Errorf("default DRM params = %+v", got)
	}
	want := IPSParams{PauseStreak: 3, MaxRelocationsPerEpoch: 2, RelocateBelowProgress: 0.6, ThrottleFactor: 0.5}
	if got := set.IPS.Params(); got != want {
		t.Errorf("default IPS params = %+v", got)
	}
	if set.Phase2.NewScheduler().Name() != "fair" {
		t.Errorf("default Phase II scheduler = %q", set.Phase2.NewScheduler().Name())
	}
	sp := set.Phase2.Speculation()
	if sp.Slowdown != 0 {
		t.Errorf("default speculation = %+v", sp)
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
	p1 := set.Phase1.(PaperPhase1)
	if p1.Overhead != 0.4 {
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
	if got := set2.Phase2.Speculation().Slowdown; got != 0.3 {
		t.Errorf("slowdown override = %v", got)
	}
	if set2.Phase2.NewScheduler().Name() != "fifo" {
		t.Errorf("wrapped scheduler = %q", set2.Phase2.NewScheduler().Name())
	}

	// The paper's Phase II takes the slowdown through the same wrapper:
	// the knob reaches the straggler detector and the canonical string,
	// and the policy still answers to its registry name.
	spec3, err := ParseSpec("p2.slowdown=0.75")
	if err != nil {
		t.Fatalf("ParseSpec paper slowdown: %v", err)
	}
	set3, err := spec3.Resolve()
	if err != nil {
		t.Fatalf("Resolve paper slowdown: %v", err)
	}
	if got := set3.Phase2.Speculation().Slowdown; got != 0.75 {
		t.Errorf("paper-p2 slowdown override = %v", got)
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
		p, err := r.Place(workload.PiEst(), 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[p]++
	}
	if counts[PlacedNative] < 20 || counts[PlacedVirtual] < 20 {
		t.Errorf("random placer skewed: %v", counts)
	}
	for _, want := range []Placement{PlacedNative, PlacedVirtual} {
		got, err := StaticPlacer(want).Place(workload.Sort(), 0)
		if err != nil || got != want {
			t.Errorf("StaticPlacer(%v) = %v, %v", want, got, err)
		}
	}
}

// TestEmptySpecIsDefault checks the zero Spec resolves to the paper
// names on every seam.
func TestEmptySpecIsDefault(t *testing.T) {
	set, err := Spec{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct{ name, want string }{
		{set.Phase1.Name(), "paper-p1"},
		{set.DRM.Name(), "paper-drm"},
		{set.IPS.Name(), "paper-ips"},
		{set.Phase2.Name(), "paper-p2"},
	} {
		if got.name != got.want {
			t.Errorf("default seam = %q, want %q", got.name, got.want)
		}
	}
}

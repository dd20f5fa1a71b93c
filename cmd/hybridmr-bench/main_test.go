package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestUnknownExperimentIDErrors(t *testing.T) {
	err := run([]string{"-only", "fig999"}, io.Discard)
	if err == nil {
		t.Fatal("run with an unknown -only id should error")
	}
	if !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), "fig999") {
		t.Fatalf("error should name the unknown id: %v", err)
	}
}

func TestListDoesNotRunExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1a", "fig11", "ext-faults", "abl-deferral"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

func TestWriteBaselineRequiresPath(t *testing.T) {
	if err := run([]string{"-write-baseline"}, io.Discard); err == nil {
		t.Fatal("-write-baseline without -baseline should error")
	}
}

// TestFlagSurface pins the merged command line: at most 22 flags, and
// none of the per-harness flags the -sweep entry point replaced.
func TestFlagSurface(t *testing.T) {
	n := 0
	newFlags(&options{}).VisitAll(func(*flag.Flag) { n++ })
	if n > 22 {
		t.Errorf("hybridmr-bench registers %d flags, want at most 22", n)
	}
	removed := []string{
		"fidelity-out", "chaos-search", "chaos-budget", "chaos-seed", "chaos-out",
		"chaos-replay", "chaos-break-recovery", "scale-sweep", "sweep-sizes",
		"sweep-seed", "perf-out", "policy-search", "search-grid", "search-samples",
		"search-seed", "search-out", "search-report", "scale-up", "scale-up-sizes",
		"scale-up-out",
	}
	for _, name := range removed {
		fs := newFlags(&options{})
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil {
			t.Errorf("removed flag -%s still parses", name)
		}
	}
	if _, err := parseArgs([]string{"-sweep", "bogus"}); err == nil {
		t.Error("an unknown -sweep kind should error")
	}
}

// TestSweepDefaults checks that unset -seed, -budget, -out and -sizes
// take each mode's documented defaults, and that an explicit value —
// even a zero — wins.
func TestSweepDefaults(t *testing.T) {
	cases := []struct {
		args   []string
		seed   int64
		budget int
		out    string
	}{
		{[]string{"-sweep", "chaos"}, 1, 200, "CHAOS.json"},
		{[]string{"-sweep", "scale"}, 1, 0, "PERF.json"},
		{[]string{"-sweep", "policy"}, 11, 24, "SEARCH.json"},
		{[]string{"-check"}, 0, 0, "FIDELITY.json"},
		{[]string{"-sweep", "chaos", "-seed", "0", "-budget", "5", "-out", "x.json"}, 0, 5, "x.json"},
	}
	for _, tc := range cases {
		o, err := parseArgs(tc.args)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if o.seed != tc.seed || o.budget != tc.budget || o.out != tc.out || o.sizes != "" {
			t.Errorf("%v resolved to seed %d, budget %d, out %q, sizes %q; want %d, %d, %q, \"\"",
				tc.args, o.seed, o.budget, o.out, o.sizes, tc.seed, tc.budget, tc.out)
		}
	}
}

// chdir moves the test into dir, so default artifact paths land there.
func chdir(t *testing.T, dir string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(prev) })
}

// jsonSection returns the raw bytes of one top-level key of a JSON
// document, or the whole document when key is empty.
func jsonSection(t *testing.T, data []byte, key string) []byte {
	t.Helper()
	if key == "" {
		return data
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc[key]
}

// TestSweepKinds drives run() for every -sweep kind at a tiny size, once
// at -parallel 1 with the default -out and once at -parallel 8 with an
// explicit one, and requires identical artifact bytes (the report
// subtree for scale, whose wall section is timing).
func TestSweepKinds(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		out     string // the kind's default artifact
		section string
		extra   string // a second artifact to compare, if any
		wantErr string
	}{
		{name: "chaos", args: []string{"-sweep", "chaos", "-seed", "7", "-budget", "20"}, out: "CHAOS.json"},
		{name: "chaos-broken", args: []string{"-sweep", "chaos", "-break-recovery", "-seed", "11", "-budget", "60"},
			out: "CHAOS.json", wantErr: "invariant violation"},
		{name: "scale", args: []string{"-sweep", "scale", "-sizes", "8,16"}, out: "PERF.json", section: "report"},
		{name: "policy", args: []string{"-sweep", "policy", "-report", "obs.html"}, out: "SEARCH.json", extra: "obs.html"},
		{name: "policy-random", args: []string{"-sweep", "policy", "-grid", "random", "-budget", "3"}, out: "SEARCH.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chdir(t, t.TempDir())
			var artifacts, extras [2][]byte
			for i, extra := range [][]string{
				{"-parallel", "1"},
				{"-parallel", "8", "-out", "p8.json"},
			} {
				args := append(append([]string(nil), tc.args...), extra...)
				err := run(args, io.Discard)
				if tc.wantErr == "" && err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
					t.Fatalf("%v: want error containing %q, got %v", args, tc.wantErr, err)
				}
				path := tc.out
				if i == 1 {
					path = "p8.json"
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				artifacts[i] = jsonSection(t, data, tc.section)
				if tc.extra != "" {
					if extras[i], err = os.ReadFile(tc.extra); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(artifacts[0]) == 0 || !bytes.Equal(artifacts[0], artifacts[1]) {
				t.Fatalf("%s artifact differs between -parallel 1 and 8:\n%s\n---\n%s", tc.name, artifacts[0], artifacts[1])
			}
			if !bytes.Equal(extras[0], extras[1]) {
				t.Fatalf("%s differs between -parallel 1 and 8", tc.extra)
			}
		})
	}
}

// TestChaosReplayReproduces replays the broken-recovery repro: it must
// still reproduce the violation and exit non-zero.
func TestChaosReplayReproduces(t *testing.T) {
	chdir(t, t.TempDir())
	if err := run([]string{"-sweep", "chaos", "-break-recovery", "-seed", "11", "-budget", "60"}, io.Discard); err == nil {
		t.Fatal("broken recovery escaped the chaos search")
	}
	err := run([]string{"-replay", "CHAOS.json"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "replay reproduced") {
		t.Fatalf("replay should reproduce the violation, got %v", err)
	}
}

// TestFidelityReportDeterministic drives the real -check pipeline over
// two fast figures and requires the FIDELITY.json bytes to be identical
// at 1 and 8 workers — the determinism contract the CI gate depends on.
func TestFidelityReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "fid1.json"), filepath.Join(dir, "fid8.json")}
	for i, workers := range []string{"1", "8"} {
		err := run([]string{
			"-check", "-only", "fig5a,fig6c", "-scale", "0.1",
			"-parallel", workers, "-out", paths[i],
		}, io.Discard)
		if err != nil {
			t.Fatalf("-check at %s workers: %v", workers, err)
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("FIDELITY.json differs between -parallel 1 and -parallel 8:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"fig5a"`)) || !bytes.Contains(a, []byte(`"fig6c"`)) {
		t.Fatalf("report missing selected figures:\n%s", a)
	}
	if !bytes.Contains(a, []byte(`"failed": 0`)) {
		t.Fatalf("fidelity checks failed at scale 0.1:\n%s", a)
	}
}

// figureGuard runs one figure-mode baseline round trip: load, check or
// record the figures section, save.
func figureGuard(path string, write bool, scale float64, order []string, measured map[string]float64, ratios map[string]map[string]float64) error {
	b, err := loadBaseline(path, write)
	if err != nil {
		return err
	}
	if err := b.figures(scale, order, measured, ratios, io.Discard); err != nil {
		return err
	}
	return b.save(io.Discard)
}

// TestBaselineGuard exercises both directions of the throughput
// tripwire against a synthetic baseline file.
func TestBaselineGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	measured := map[string]float64{"figX": 900}
	order := []string{"figX"}

	if err := figureGuard(path, true, 0.1, order, measured, nil); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	// Same throughput: passes.
	if err := figureGuard(path, false, 0.1, order, measured, nil); err != nil {
		t.Fatalf("equal throughput should pass: %v", err)
	}
	// A 2x slowdown stays inside the 3x tolerance.
	if err := figureGuard(path, false, 0.1, order, map[string]float64{"figX": 450}, nil); err != nil {
		t.Fatalf("2x slowdown should pass: %v", err)
	}
	// A >3x slowdown trips the guard.
	err := figureGuard(path, false, 0.1, order, map[string]float64{"figX": 250}, nil)
	if err == nil || !strings.Contains(err.Error(), "throughput regression") {
		t.Fatalf("4x slowdown should trip the guard, got %v", err)
	}
	// Experiments absent from the baseline are skipped, not failed.
	if err := figureGuard(path, false, 0.1, []string{"figY"}, map[string]float64{"figY": 1}, nil); err != nil {
		t.Fatalf("unknown experiment should be skipped: %v", err)
	}
	// A scale mismatch refuses to compare apples to oranges.
	if err := figureGuard(path, false, 1.0, order, measured, nil); err == nil {
		t.Fatal("scale mismatch should error")
	}
	// Checking against a missing file is an error; recording is not.
	missing := filepath.Join(dir, "missing.json")
	if _, err := loadBaseline(missing, false); err == nil {
		t.Fatal("checking a missing baseline should error")
	}
	if err := figureGuard(missing, true, 0.1, order, measured, nil); err != nil {
		t.Fatalf("recording a new baseline: %v", err)
	}
}

// TestSweepFloors exercises the scale_up and policy_search floors, which
// share the figures' 3x tolerance.
func TestSweepFloors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	b, err := loadBaseline(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.scaleUp([]string{"pm8"}, map[string]float64{"pm8": 900}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := b.policySearch(900, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := b.save(io.Discard); err != nil {
		t.Fatal(err)
	}
	if b, err = loadBaseline(path, false); err != nil {
		t.Fatal(err)
	}
	for _, ok := range []map[string]float64{{"pm8": 450}, {"pm16": 1}} {
		if err := b.scaleUp([]string{"pm8", "pm16"}, ok, io.Discard); err != nil {
			t.Fatalf("%v should pass: %v", ok, err)
		}
	}
	if err := b.scaleUp([]string{"pm8"}, map[string]float64{"pm8": 250}, io.Discard); err == nil || !strings.Contains(err.Error(), "scale-up throughput regression") {
		t.Fatalf("4x scale-up slowdown should trip the guard, got %v", err)
	}
	if err := b.policySearch(450, io.Discard); err != nil {
		t.Fatalf("2x policy-search slowdown should pass: %v", err)
	}
	if err := b.policySearch(250, io.Discard); err == nil || !strings.Contains(err.Error(), "policy-search throughput regression") {
		t.Fatalf("4x policy-search slowdown should trip the guard, got %v", err)
	}
}

// TestCostRatioGuard exercises the scans-per-decision tripwire: a
// ratio may shrink or wobble but must not inflate past its ceiling.
func TestCostRatioGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	measured := map[string]float64{"figX": 900}
	order := []string{"figX"}
	ratioName := costRatioDefs[0].name
	base := map[string]map[string]float64{"figX": {ratioName: 100}}

	if err := figureGuard(path, true, 0.1, order, measured, base); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	// Equal and improved (lower) ratios pass; so does a wobble inside
	// the 1.5x ceiling.
	for _, ok := range []float64{100, 60, 149} {
		got := map[string]map[string]float64{"figX": {ratioName: ok}}
		if err := figureGuard(path, false, 0.1, order, measured, got); err != nil {
			t.Fatalf("ratio %.0f should pass: %v", ok, err)
		}
	}
	// Inflation past the ceiling trips the guard.
	got := map[string]map[string]float64{"figX": {ratioName: 151}}
	err := figureGuard(path, false, 0.1, order, measured, got)
	if err == nil || !strings.Contains(err.Error(), "cost-counter inflation") {
		t.Fatalf("inflated ratio should trip the guard, got %v", err)
	}
	// Ratios absent from the baseline (new experiments, counters that
	// did not engage) are skipped, not failed.
	missing := map[string]map[string]float64{"figY": {ratioName: 9999}}
	if err := figureGuard(path, false, 0.1, order, measured, missing); err != nil {
		t.Fatalf("unknown ratio rows should be skipped: %v", err)
	}
}

// TestWriteBaselineKeepsOtherSections starts from a baseline holding
// every section and records each mode's section in turn through run():
// a write may replace its own section only. Figure-mode writes used to
// drop the policy_search floor, which silently switched its guard off.
func TestWriteBaselineKeepsOtherSections(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	seed := baselineFile{
		Scale:        0.1,
		EventsPerSec: map[string]float64{"figX": 1},
		CostRatios:   map[string]map[string]float64{"figX": {costRatioDefs[0].name: 1}},
		ScaleUp:      map[string]float64{"pm2500": 1},
		PolicySearch: 1,
	}
	seedData, err := json.Marshal(seed)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		// own copies this mode's section from got into want.
		own func(want *baselineFile, got baselineFile)
	}{
		{"figures", []string{"-scale", "0.1", "-only", "fig5a"}, func(want *baselineFile, got baselineFile) {
			want.Scale, want.EventsPerSec, want.CostRatios = got.Scale, got.EventsPerSec, got.CostRatios
		}},
		{"scale", []string{"-sweep", "scale", "-sizes", "8,16", "-out", filepath.Join(dir, "perf.json")}, func(want *baselineFile, got baselineFile) {
			want.ScaleUp = got.ScaleUp
		}},
		{"policy", []string{"-sweep", "policy", "-out", filepath.Join(dir, "search.json")}, func(want *baselineFile, got baselineFile) {
			want.PolicySearch = got.PolicySearch
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, seedData, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append(tc.args, "-baseline", path, "-write-baseline")
			if err := run(args, io.Discard); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got baselineFile
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(got, seed) {
				t.Fatalf("%s write left the baseline unchanged", tc.name)
			}
			want := seed
			tc.own(&want, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s write touched another section:\ngot  %s\nwant %+v", tc.name, data, want)
			}
		})
	}
}

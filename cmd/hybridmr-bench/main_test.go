package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
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

// TestFlagSurface pins the merged command line: at most 20 flags, and
// none of the per-harness flags the -sweep entry point replaced or the
// throughput-floor flags the cost golden replaced.
func TestFlagSurface(t *testing.T) {
	n := 0
	newFlags(&options{}).VisitAll(func(*flag.Flag) { n++ })
	if n > 20 {
		t.Errorf("hybridmr-bench registers %d flags, want at most 20", n)
	}
	removed := []string{
		"fidelity-out", "chaos-search", "chaos-budget", "chaos-seed", "chaos-out",
		"chaos-replay", "chaos-break-recovery", "scale-sweep", "sweep-sizes",
		"sweep-seed", "perf-out", "policy-search", "search-grid", "search-samples",
		"search-seed", "search-out", "search-report", "scale-up", "scale-up-sizes",
		"scale-up-out", "baseline", "write-baseline",
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
// take each mode's documented defaults, that an explicit value — even a
// zero — wins, and that a budget of no trials is refused where the
// budget sizes the sweep.
func TestSweepDefaults(t *testing.T) {
	cases := []struct {
		args    []string
		seed    int64
		budget  int
		out     string
		wantErr bool
	}{
		{[]string{"-sweep", "chaos"}, 1, 200, "CHAOS.json", false},
		{[]string{"-sweep", "scale"}, 1, 0, "PERF.json", false},
		{[]string{"-sweep", "policy"}, 11, 24, "SEARCH.json", false},
		{[]string{"-check"}, 0, 0, "FIDELITY.json", false},
		{[]string{"-sweep", "chaos", "-seed", "0", "-budget", "5", "-out", "x.json"}, 0, 5, "x.json", false},
		{[]string{"-sweep", "policy", "-seed", "0"}, 0, 24, "SEARCH.json", false},
		{[]string{"-sweep", "policy", "-budget", "0"}, 11, 0, "SEARCH.json", false},
		{args: []string{"-sweep", "chaos", "-budget", "0"}, wantErr: true},
		{args: []string{"-sweep", "policy", "-grid", "random", "-budget", "0"}, wantErr: true},
		{args: []string{"-sweep", "policy", "-grid", "random", "-budget", "-1"}, wantErr: true},
	}
	for _, tc := range cases {
		o, err := parseArgs(tc.args)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "-budget") {
				t.Errorf("%v: want a -budget error, got %v", tc.args, err)
			}
			continue
		}
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
// subtree for scale, whose wall section is timing) that contain any
// expected text.
func TestSweepKinds(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		out     string // the kind's default artifact
		section string
		extra   string // a second artifact to compare, if any
		wantErr string
		want    string // text the artifact must contain, if any
	}{
		{name: "chaos", args: []string{"-sweep", "chaos", "-seed", "7", "-budget", "20"}, out: "CHAOS.json"},
		{name: "chaos-broken", args: []string{"-sweep", "chaos", "-break-recovery", "-seed", "11", "-budget", "60"},
			out: "CHAOS.json", wantErr: "invariant violation"},
		{name: "scale", args: []string{"-sweep", "scale", "-sizes", "8,16"}, out: "PERF.json", section: "report"},
		{name: "policy", args: []string{"-sweep", "policy", "-report", "obs.html"}, out: "SEARCH.json", extra: "obs.html"},
		{name: "policy-random", args: []string{"-sweep", "policy", "-grid", "random", "-budget", "3"}, out: "SEARCH.json"},
		{name: "policy-seed0", args: []string{"-sweep", "policy", "-grid", "random", "-budget", "2", "-seed", "0"},
			out: "SEARCH.json", want: `"seed": 0,`},
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
			if !bytes.Contains(artifacts[0], []byte(tc.want)) {
				t.Fatalf("%s artifact lacks %q:\n%s", tc.name, tc.want, artifacts[0])
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

// TestSizesMustIncrease checks that -sizes rejects a list that is not
// strictly increasing before any sweep point runs, and accepts one that is.
func TestSizesMustIncrease(t *testing.T) {
	chdir(t, t.TempDir())
	for _, sizes := range []string{"24,24", "96,24"} {
		err := run([]string{"-sweep", "scale", "-sizes", sizes}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "strictly increasing") {
			t.Errorf("-sizes %s: want a strictly-increasing error, got %v", sizes, err)
		}
	}
	if _, err := os.Stat("PERF.json"); !os.IsNotExist(err) {
		t.Errorf("a rejected -sizes list still wrote PERF.json (stat: %v)", err)
	}
	got, err := parseSizes("24,96")
	if err != nil || len(got) != 2 || got[0] != 24 || got[1] != 96 {
		t.Errorf("-sizes 24,96 parsed to %v, %v; want [24 96]", got, err)
	}
}

// TestBenchJSONEventsFired drives -json at 1 and 8 workers and requires
// each BENCH_<id>.json to record the same nonzero events_fired.
func TestBenchJSONEventsFired(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	chdir(t, t.TempDir())
	ids := []string{"fig2b", "fig6b"}
	var fired [2]map[string]uint64
	for i, workers := range []string{"1", "8"} {
		err := run([]string{"-only", strings.Join(ids, ","), "-scale", "0.1", "-json", "-parallel", workers}, io.Discard)
		if err != nil {
			t.Fatalf("-json at %s workers: %v", workers, err)
		}
		fired[i] = map[string]uint64{}
		for _, id := range ids {
			data, err := os.ReadFile("BENCH_" + id + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var rec benchRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatalf("BENCH_%s.json: %v", id, err)
			}
			fired[i][id] = rec.EventsFired
		}
	}
	for _, id := range ids {
		if fired[0][id] == 0 || fired[0][id] != fired[1][id] {
			t.Errorf("%s events_fired: %d at 1 worker, %d at 8; want equal and nonzero", id, fired[0][id], fired[1][id])
		}
	}
}

// TestBenchJSONControllerMetrics checks that the experiments driving a
// full HybridMR system record its controllers, that the experiments
// building a standalone DRM or IPS record theirs, and that the
// cross-platform designs record into a registry at all.
func TestBenchJSONControllerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	chdir(t, t.TempDir())
	ids := []string{"fig8a", "fig9b", "fig8d", "fig9a", "fig10a", "abl-deferral"}
	if err := run([]string{"-only", strings.Join(ids, ","), "-scale", "0.1", "-json"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]trace.Snapshot{}
	for _, id := range ids {
		data, err := os.ReadFile("BENCH_" + id + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var rec benchRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("BENCH_%s.json: %v", id, err)
		}
		metrics[id] = rec.Metrics
	}
	for _, id := range []string{"fig8d", "fig9a"} {
		actions := 0.0
		for name, v := range metrics[id].Counters {
			if strings.HasPrefix(name, "ips.actions.") {
				actions += v
			}
		}
		if actions <= 0 {
			t.Errorf("%s ips.actions.* = %v, want > 0", id, actions)
		}
	}
	for _, id := range []string{"fig10a", "abl-deferral"} {
		if got := metrics[id].Counters["drm.cap_adjustments"]; got <= 0 {
			t.Errorf("%s drm.cap_adjustments = %v, want > 0", id, got)
		}
	}
	if got := metrics["fig8a"].Counters["core.placements"]; got <= 0 {
		t.Errorf("fig8a core.placements = %v, want > 0", got)
	}
	if m := metrics["fig9b"]; len(m.Counters)+len(m.Gauges)+len(m.Histograms) == 0 {
		t.Error("fig9b metrics are empty")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tinyScale shrinks every workload so the self-test runs in seconds.
const tinyScale = 0.05

// tinyRun measures one workload at tiny size and decodes its two output
// lines back from JSON, as a consumer of the benchmark would.
func tinyRun(t *testing.T, name string, seed int64, traced bool) (ledger, result, []byte) {
	t.Helper()
	p, err := makePlan(name, seed, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	led, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := measure(p, led, 0, traced, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: want a ledger line and a result line, got %d lines", name, len(lines))
	}
	var l map[string]ledger
	if err := json.Unmarshal([]byte(lines[0]), &l); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &keys); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(keys); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("%s: result keys %v", name, got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatal(err)
	}
	return l["ledger"], res, out.Bytes()
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny size:
// every named metric must be present with its unit, every check must
// pass (jobs complete, DFS replicated, no invariant violation, repeats
// exact, spans telescope, run layers add up to the traced wall, bypass
// predictions hold), and the untraced and traced passes must simulate
// the same outcome.
func TestWorkloadsTiny(t *testing.T) {
	led, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				l, res, _ := tinyRun(t, name, 3, traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced, res.Correct, res.Attempted, res.Failed, l.Failures)
				}
				want := map[string]string{}
				if traced {
					for _, ls := range led.Layers {
						want[ls.Name] = ls.Unit
					}
				} else {
					for _, m := range endToEnd {
						want[m.name] = m.unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, name, m, unit)
					}
				}
				if traced && l.Layers["engine.pump"].Calls == 0 {
					t.Errorf("traced ledger has no engine.pump span: %v", l.Layers)
				}
			}
		})
	}
}

// TestSeeds checks that a seed fixes the generated inputs and that a
// different seed changes them.
func TestSeeds(t *testing.T) {
	for _, name := range workloadNames {
		a, err := makePlan(name, 7, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(name, 7, tinyScale)
		c, _ := makePlan(name, 8, tinyScale)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		c.seed = a.seed
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// TestBenchmarkJSONMatchesLedger keeps BENCHMARK.json, ledger.json and
// the program's metric tables in step.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	led, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
		if _, ok := led.Workloads[w.Name]; !ok {
			t.Errorf("workload %s has no ledger entry", w.Name)
		}
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", wl, workloadNames)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if bj.EndToEnd[i].Name != m.name || bj.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, bj.EndToEnd[i], m)
		}
	}
	if len(bj.PerLayer) != len(led.Layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, ledger %d", len(bj.PerLayer), len(led.Layers))
	}
	for i, l := range led.Layers {
		b := bj.PerLayer[i]
		if b.Name != l.Name || b.Unit != l.Unit || b.Better != l.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, ledger %+v", i, b, l)
		}
		for _, w := range l.On {
			if _, ok := led.Workloads[w]; !ok {
				t.Errorf("%s names unknown workload %s", l.Name, w)
			}
		}
	}
}

// TestDiff feeds two saved traced outputs to the diff mode.
func TestDiff(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 2; i++ {
		_, _, out := tinyRun(t, "mixed", 2, true)
		path := filepath.Join(dir, []string{"a.txt", "b.txt"}[i])
		if err := os.WriteFile(path, append([]byte("build noise\n"), out...), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	var buf bytes.Buffer
	if err := diffFiles(paths[0], paths[1], &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine.pump", "core.drm", "jt.pairs_scanned", "sim.events_fired", "+0 "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("diff output lacks %q:\n%s", want, buf.String())
		}
	}
}

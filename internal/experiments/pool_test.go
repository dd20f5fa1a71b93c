package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/critpath"
	"repro/internal/sim"
	"repro/internal/trace"
)

// withParallelism runs fn with the worker-pool width pinned and restores
// the global.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := Parallelism
	Parallelism = n
	defer func() { Parallelism = prev }()
	fn()
}

func TestWorkersResolvesParallelism(t *testing.T) {
	withParallelism(t, 3, func() {
		if got := Workers(); got != 3 {
			t.Errorf("Workers() = %d with Parallelism=3", got)
		}
	})
	withParallelism(t, 0, func() {
		if got := Workers(); got < 1 {
			t.Errorf("Workers() = %d with Parallelism unset, want >= 1", got)
		}
	})
}

func TestMapReturnsResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		withParallelism(t, workers, func() {
			out, err := Map(100, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
				}
			}
		})
	}
}

func TestMapZeroItems(t *testing.T) {
	out, err := Map(0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("Map(0) = %v, %v", out, err)
	}
}

// TestMapReportsLowestIndexError pins the deterministic error contract:
// whichever goroutine fails first, the caller always sees the failure of
// the lowest sweep-point index.
func TestMapReportsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		withParallelism(t, workers, func() {
			_, err := Map(50, func(i int) (int, error) {
				if i%7 == 3 { // fails at 3, 10, 17, ...
					return 0, fmt.Errorf("point %d failed", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "point 3 failed" {
				t.Errorf("workers=%d: err = %v, want lowest-index failure (point 3)", workers, err)
			}
		})
	}
}

// TestParallelDeterminism is the regression gate for the experiment
// worker pool: a representative subset of figures must render
// byte-identical tables and notes — and fire identical event totals,
// read as the sim.ProcessEvents delta around the run — at parallelism 1
// and 8. Every sweep point owns its seeded engine, so the worker count
// can only change scheduling, never results. No test in this package
// runs in parallel, so each delta is the run's own.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	// The subset covers the refactor patterns: grid fan-out (fig1a),
	// shared helper (fig2a), normalized series (fig5a), the
	// interference sweep (fig6c), paired A/B runs (abl-speculation) and
	// fault-injected runs (ext-faults).
	ids := []string{"fig1a", "fig2a", "fig5a", "fig6c", "abl-speculation", "ext-faults"}
	withScale(t, 0.1, func() {
		for _, id := range ids {
			exp, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			render := func(workers int) (string, uint64, string) {
				var text string
				var events uint64
				var snap string
				withParallelism(t, workers, func() {
					before := sim.ProcessEvents()
					outcome, err := exp.Run()
					events = sim.ProcessEvents() - before
					if err != nil {
						t.Fatalf("%s at parallelism %d: %v", id, workers, err)
					}
					var sb strings.Builder
					outcome.Fprint(&sb)
					text = sb.String()
					data, err := json.Marshal(struct {
						M trace.Snapshot              `json:"metrics"`
						C map[string]critpath.Summary `json:"critical_paths"`
					}{outcome.Metrics, outcome.CritPaths})
					if err != nil {
						t.Fatalf("%s: marshal metrics: %v", id, err)
					}
					snap = string(data)
				})
				return text, events, snap
			}
			serial, serialEvents, serialSnap := render(1)
			parallel, parallelEvents, parallelSnap := render(8)
			if serial != parallel {
				t.Errorf("%s output differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial, parallel)
			}
			if serialEvents != parallelEvents {
				t.Errorf("%s fired events differ: %d serial vs %d parallel", id, serialEvents, parallelEvents)
			}
			if serialEvents == 0 {
				t.Errorf("%s fired zero events", id)
			}
			// The merged metrics snapshot (and any critical-path digests)
			// must also be worker-count independent: Registry.MergeAll is
			// order-independent by construction.
			if serialSnap != parallelSnap {
				t.Errorf("%s metrics snapshot differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", id, serialSnap, parallelSnap)
			}
			if serialSnap == `{"metrics":{},"critical_paths":null}` {
				t.Errorf("%s recorded no metrics — pool not plumbed", id)
			}
		}
	})
}

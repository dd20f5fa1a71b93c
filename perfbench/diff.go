package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// savedRun is one saved benchmark output: its ledger line and its result
// line.
type savedRun struct {
	ledger ledger
	result result
}

func readRun(path string) (*savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var run savedRun
	var haveLedger, haveResult bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe map[string]json.RawMessage
		if json.Unmarshal([]byte(line), &probe) != nil {
			continue
		}
		if raw, ok := probe["ledger"]; ok {
			if err := json.Unmarshal(raw, &run.ledger); err != nil {
				return nil, fmt.Errorf("%s: ledger line: %w", path, err)
			}
			haveLedger = true
		} else if _, ok := probe["metrics"]; ok {
			if err := json.Unmarshal([]byte(line), &run.result); err != nil {
				return nil, fmt.Errorf("%s: result line: %w", path, err)
			}
			haveResult = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !haveLedger || !haveResult {
		return nil, fmt.Errorf("%s: no ledger and result lines found", path)
	}
	if !run.ledger.Traced {
		return nil, fmt.Errorf("%s: not a traced run (--trace 1)", path)
	}
	return &run, nil
}

// diffFiles prints, for two traced runs, the per-span self-time and call
// deltas, the cost-counter deltas and the per-layer metric deltas, so a
// change can show in which layer its saving appears.
func diffFiles(pathA, pathB string, w io.Writer) error {
	a, err := readRun(pathA)
	if err != nil {
		return err
	}
	b, err := readRun(pathB)
	if err != nil {
		return err
	}
	if a.ledger.Workload != b.ledger.Workload {
		return fmt.Errorf("runs are of different workloads: %s vs %s", a.ledger.Workload, b.ledger.Workload)
	}
	fmt.Fprintf(w, "workload %s: A = %s (seed %d), B = %s (seed %d)\n\n",
		a.ledger.Workload, pathA, a.ledger.Seed, pathB, b.ledger.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)

	fmt.Fprintln(tw, "span\tA self s\tB self s\tdelta s\tdelta %\tA calls\tB calls\t")
	for _, name := range unionKeys(a.ledger.Layers, b.ledger.Layers) {
		la, lb := a.ledger.Layers[name], b.ledger.Layers[name]
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%+.4f\t%s\t%d\t%d\t\n",
			name, la.SelfS, lb.SelfS, lb.SelfS-la.SelfS, pct(la.SelfS, lb.SelfS), la.Calls, lb.Calls)
	}
	fmt.Fprintln(tw, "\t\t\t\t\t\t\t")
	fmt.Fprintln(tw, "counter\tA\tB\tdelta\tdelta %\t\t\t")
	for _, name := range unionKeys(a.ledger.Counters, b.ledger.Counters) {
		ca, cb := a.ledger.Counters[name], b.ledger.Counters[name]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%+d\t%s\t\t\t\n", name, ca, cb, cb-ca, pct(float64(ca), float64(cb)))
	}
	fmt.Fprintln(tw, "\t\t\t\t\t\t\t")
	fmt.Fprintln(tw, "metric\tA\tB\tdelta\tdelta %\tunit\t\t")
	for _, name := range unionKeys(a.result.Metrics, b.result.Metrics) {
		ma, mb := a.result.Metrics[name], b.result.Metrics[name]
		unit := ma.Unit
		if unit == "" {
			unit = mb.Unit
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%+.6g\t%s\t%s\t\t\n", name, ma.Value, mb.Value, mb.Value-ma.Value, pct(ma.Value, mb.Value), unit)
	}
	return tw.Flush()
}

func pct(a, b float64) string {
	if a == 0 {
		if b == 0 {
			return "0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", (b-a)/a*100)
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

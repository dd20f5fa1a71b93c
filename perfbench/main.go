// Command perfbench is the repository's performance benchmark: it runs
// one of three simulator workloads (mixed, scaleup, faults) through the
// public hybridmr API, checks the outputs, and prints a ledger line and a
// result line of JSON.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload mixed --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload faults --seed 1 --seconds 20 --trace 1 > after.txt
//	bash perfbench/run.sh --diff before.txt after.txt
//
// With --trace 0 it repeats the workload untraced for --seconds and
// reports the end-to-end metrics as medians over the repetitions. With
// --trace 1 it alternates untraced and traced repetitions (plus, on a
// workload with sinks, repetitions with the sinks removed) and reports
// the per-layer metrics. --diff takes two saved outputs of traced runs and
// prints per-layer self-time and count deltas.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: mixed, scaleup or faults")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 20, "measurement window in host seconds")
	traceOn := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	diff := fs.Bool("diff", false, "compare two saved traced outputs named as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff takes two files, got %d", fs.NArg())
		}
		return diffFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	p, err := makePlan(*workload, *seed, 1)
	if err != nil {
		return err
	}
	led, err := loadLedger()
	if err != nil {
		return err
	}
	rep, err := measure(p, led, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, stderr)
	if err != nil {
		return err
	}
	return rep.write(stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger is the line printed before the result: what ran, the span tree
// folded per layer, the raw counters, and every failed check by name.
type ledger struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Reps     map[string]int     `json:"reps"`
	Details  map[string]any     `json:"details"`
	Layers   map[string]layer   `json:"layers,omitempty"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Wall     map[string]float64 `json:"wall_s"`
	Failures []string           `json:"failures"`
}

// layer is one span name's median self time and its call count.
type layer struct {
	SelfS float64 `json:"self_s"`
	Calls int64   `json:"calls"`
}

type report struct {
	ledger ledger
	result result
}

func (r *report) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]ledger{"ledger": r.ledger}); err != nil {
		return err
	}
	if err := enc.Encode(r.result); err != nil {
		return err
	}
	return bw.Flush()
}

// Package mapred simulates a Hadoop-v0.22-style MapReduce framework on
// top of the cluster and dfs substrates: a JobTracker with pluggable
// schedulers (FIFO and Fair), TaskTrackers with fixed map/reduce slots,
// locality-aware map placement, a shuffle model whose network demand
// depends on where map outputs physically live, speculative execution of
// stragglers, and both the combined and the split (separate compute and
// storage nodes) deployment architectures from the paper's Figure 3.
package mapred

import (
	"fmt"
)

// JobSpec describes the workload shape of a MapReduce job. Map tasks
// stream their input block; reduce tasks shuffle, merge and write output.
// All rates are full-speed values on unloaded native hardware; the
// cluster kernel slows tasks under contention and virtualization.
type JobSpec struct {
	// Name identifies the benchmark (e.g. "Sort").
	Name string
	// InputMB is the total input data size. The framework materializes
	// the input in the DFS at submit time if it does not already exist.
	InputMB float64
	// Reduces is the number of reduce tasks (0 for map-only jobs).
	Reduces int

	// MapStreamMBps is the rate at which one map task consumes input at
	// full speed (pipeline bound).
	MapStreamMBps float64
	// MapCPUPerMB is CPU-seconds of map computation per MB of input; the
	// effective stream rate is additionally bounded by one core.
	MapCPUPerMB float64
	// MapMemMB is a map task's resident memory.
	MapMemMB float64
	// FixedMapWork, when positive, makes each map task a pure
	// compute-bound unit of this many CPU-seconds, ignoring the stream
	// model (used by PiEst-style jobs whose input is negligible).
	FixedMapWork float64
	// FixedMapTasks forces the number of map tasks when FixedMapWork is
	// used; otherwise one map task runs per DFS block.
	FixedMapTasks int

	// ShuffleRatio is map-output MB per input MB (Sort ≈ 1, DistGrep ≈ 0).
	ShuffleRatio float64

	// ReduceStreamMBps is the rate at which one reduce task consumes
	// shuffle data at full speed.
	ReduceStreamMBps float64
	// ReduceCPUPerMB is CPU-seconds per MB of shuffle input.
	ReduceCPUPerMB float64
	// ReduceMemMB is a reduce task's resident memory.
	ReduceMemMB float64
	// OutputRatio is final-output MB per shuffle MB.
	OutputRatio float64

	// TaskOverheadSec is the fixed per-attempt startup cost (JVM launch,
	// task setup); defaults to 1.5 s.
	TaskOverheadSec float64

	// InMemory keeps intermediate data in RAM instead of spilling to
	// disk, in the style of Spark's resilient distributed datasets —
	// the paper's named future work. Map outputs are cached in the map
	// task's memory and reduces merge in memory, so disk traffic shrinks
	// to input reads and final output writes while resident memory grows
	// by the cached partition sizes. On 1 GB guests this trades I/O
	// pressure for paging pressure, exactly the Spark-on-small-VMs
	// trade-off.
	InMemory bool
}

// Validate reports structural problems in the spec.
func (s JobSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("mapred: spec has no name")
	}
	if s.FixedMapWork <= 0 {
		if s.InputMB <= 0 {
			return fmt.Errorf("mapred: %s: InputMB must be positive", s.Name)
		}
		if s.MapStreamMBps <= 0 {
			return fmt.Errorf("mapred: %s: MapStreamMBps must be positive", s.Name)
		}
	} else if s.FixedMapTasks <= 0 {
		return fmt.Errorf("mapred: %s: FixedMapWork requires FixedMapTasks", s.Name)
	}
	if s.Reduces > 0 && s.ShuffleRatio > 0 && s.ReduceStreamMBps <= 0 {
		return fmt.Errorf("mapred: %s: shuffling job needs ReduceStreamMBps", s.Name)
	}
	if s.Reduces < 0 {
		return fmt.Errorf("mapred: %s: negative Reduces", s.Name)
	}
	return nil
}

// WithInputMB returns a copy of the spec with a different input size, the
// knob every data-size sweep in the evaluation turns.
func (s JobSpec) WithInputMB(mb float64) JobSpec {
	s.InputMB = mb
	return s
}

func (s JobSpec) overhead() float64 {
	if s.TaskOverheadSec > 0 {
		return s.TaskOverheadSec
	}
	return 1.5
}

// effectiveMapStream is the map stream rate after the one-core CPU bound.
func (s JobSpec) effectiveMapStream() float64 {
	rate := s.MapStreamMBps
	if s.MapCPUPerMB > 0 && 1/s.MapCPUPerMB < rate {
		rate = 1 / s.MapCPUPerMB
	}
	return rate
}

// effectiveReduceStream is the reduce stream rate after the one-core CPU
// bound.
func (s JobSpec) effectiveReduceStream() float64 {
	rate := s.ReduceStreamMBps
	if rate <= 0 {
		rate = 40
	}
	if s.ReduceCPUPerMB > 0 && 1/s.ReduceCPUPerMB < rate {
		rate = 1 / s.ReduceCPUPerMB
	}
	return rate
}

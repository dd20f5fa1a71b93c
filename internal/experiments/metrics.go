package experiments

import (
	"sync"

	"repro/internal/critpath"
	"repro/internal/obs"
	"repro/internal/trace"
)

// metricsPool collects metrics from concurrent sweep points. Each point
// records into its own private registry (shared registries are not
// goroutine-safe, and interleaving would be nondeterministic anyway),
// which the pool keeps from the moment it hands it out. The registries
// are combined lazily with Registry.MergeAll, whose float accumulations
// are order-canonical, so the merged snapshot is byte-identical at any
// worker count even though workers take registries in start order.
type metricsPool struct {
	mu   sync.Mutex
	regs []*trace.Registry
}

func newMetricsPool() *metricsPool {
	return &metricsPool{}
}

// sinks hands out a sinks handle on a fresh private registry for one
// sweep point; safe to call from Map workers.
func (p *metricsPool) sinks() obs.Sinks {
	if p == nil {
		return obs.Sinks{}
	}
	reg := trace.NewRegistry()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.regs = append(p.regs, reg)
	return obs.Sinks{Metrics: reg}
}

// snapshot merges every registry handed out so far and summarizes it.
func (p *metricsPool) snapshot() trace.Snapshot {
	if p == nil {
		return trace.Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	merged := trace.NewRegistry()
	merged.MergeAll(p.regs)
	return merged.Snapshot()
}

// critPaths accumulates per-benchmark critical-path summaries keyed by a
// deterministic label; safe to call from Map workers.
type critPaths struct {
	mu sync.Mutex
	m  map[string]critpath.Summary
}

func (c *critPaths) add(label string, sum *critpath.Summary) {
	if c == nil || sum == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]critpath.Summary{}
	}
	c.m[label] = *sum
}

package cluster

import (
	"math"
	"time"

	"repro/internal/resource"
	"repro/internal/sim"
)

// OpenEnded marks a Consumer that runs until stopped (interactive
// services, long-lived daemons) rather than completing a fixed amount of
// work.
const OpenEnded = -1.0

// Consumer is a unit of resource consumption: a map/reduce task, a DFS
// transfer, an interactive service, or a migration stream. It declares the
// resource rates it would consume at full speed and the amount of work in
// full-speed seconds; the hosting PM's kernel decides how fast it actually
// progresses.
type Consumer struct {
	// Name identifies the consumer in logs and metrics.
	Name string
	// Demand is the full-speed resource appetite: CPU in cores, Memory in
	// resident MB, DiskIO/NetIO in MB/s.
	Demand resource.Vector
	// Work is the duration in seconds the consumer would run at full
	// speed, or OpenEnded.
	Work float64
	// Weight scales the consumer's share under contention (default 1).
	Weight float64
	// Cap is an externally installed throttle (the DRM's cgroup-style
	// control); zero components mean "uncapped".
	Cap resource.Vector
	// OnComplete fires when the work finishes. It is never called for
	// open-ended consumers.
	OnComplete func()
	// OnKilled fires if the consumer is killed before completing.
	OnKilled func()

	host       *PM // the machine it runs on, nil when detached
	vm         *VM // the VM it runs in, nil when native or detached
	remaining  float64
	lastSettle time.Duration
	alloc      resource.Vector
	// raw is alloc in raw host units, as of the latest solve: a scoped
	// re-solve re-adds it into the machine's utilization.
	raw        resource.Vector
	speed      float64
	completion *sim.Event
	// completeFn is c.complete, bound at the first completion scheduled
	// and kept for the consumer's lifetime, so neither rescheduling the
	// completion on every re-solve nor restarting a recycled consumer
	// allocates a method value.
	completeFn func()
	state      consumerState
}

type consumerState int

const (
	consumerIdle consumerState = iota
	consumerRunning
	consumerDone
	consumerKilled
)

// Running reports whether the consumer is attached to a node.
func (c *Consumer) Running() bool { return c.state == consumerRunning }

// Done reports whether the consumer completed its work.
func (c *Consumer) Done() bool { return c.state == consumerDone }

// Node returns where the consumer runs, or nil.
func (c *Consumer) Node() Node {
	switch {
	case c.vm != nil:
		return c.vm
	case c.host != nil:
		return c.host
	}
	return nil
}

// Alloc returns the current resource allocation, re-solving the host
// first if a change left it stale.
func (c *Consumer) Alloc() resource.Vector {
	if c.host != nil {
		c.host.solve()
	}
	return c.alloc
}

// Speed returns the current progress rate in [0, 1], re-solving the host
// first if a change left it stale.
func (c *Consumer) Speed() float64 {
	if c.host != nil {
		c.host.solve()
	}
	return c.speed
}

// Remaining returns the un-done work in full-speed seconds, settling
// progress to the current instant first. Open-ended consumers return
// OpenEnded.
func (c *Consumer) Remaining() float64 {
	if c.Work < 0 {
		return OpenEnded
	}
	if c.host != nil {
		c.host.settle()
	}
	return c.remaining
}

// Progress returns the completed fraction in [0, 1]; open-ended consumers
// report 0.
func (c *Consumer) Progress() float64 {
	if c.Work <= 0 {
		return 0
	}
	rem := c.Remaining()
	p := 1 - rem/c.Work
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// SetDemand replaces the demand vector and re-solves the host. It is how
// interactive services track their client load.
func (c *Consumer) SetDemand(d resource.Vector) {
	if c.host != nil {
		c.host.settle()
	}
	c.Demand = d
	if c.host != nil {
		c.host.update()
	}
}

// SetCap installs a resource throttle (the Phase II DRM's actuator) and
// requests a re-solve of the host, notifying its watchers; the solve
// runs when its outputs are first read or at the engine's next flush, so
// k caps on one machine at one instant cost one solve. On a VM member
// the request re-solves only that VM's members: a member's cap bounds
// its claim on the VM's share and never enters the top-level division
// of the machine, so every other share keeps its bits (see PM.request).
// The solve reads a cap only as the claim bound min(demand, cap) and in
// the paging test 0 < cap < demand, so when neither the old nor the new
// cap binds in any dimension that changed (capSwapInert) it would
// reproduce every allocation and speed bit for bit: SetCap then requests
// no solve and notifies no watcher, but still settles and has the flush
// re-key every completion event on the machine from the settled
// remaining work, exactly as a re-solve would.
func (c *Consumer) SetCap(cap resource.Vector) {
	host := c.host
	if host == nil {
		c.Cap = cap
		return
	}
	host.settle()
	old := c.Cap
	c.Cap = cap
	if capSwapInert(c.Demand, old, cap) {
		host.request()
		return
	}
	host.reshare(c.vm)
}

// capSwapInert reports whether replacing cap old by new leaves the solve
// unchanged: in every dimension where they differ, each is either unset
// (<= 0) or at least the demand. The conversion to raw host units
// divides by the overhead and multiplies by the I/O inflation, both
// positive and monotone under rounding, so "at least the demand"
// survives it.
func capSwapInert(demand, old, new resource.Vector) bool {
	for _, k := range resource.Kinds() {
		o, n, d := old.Get(k), new.Get(k), demand.Get(k)
		if o != n && !(capUnbound(o, d) && capUnbound(n, d)) {
			return false
		}
	}
	return true
}

// capUnbound reports whether a cap leaves a demand untouched.
func capUnbound(cap, demand float64) bool { return cap <= 0 || cap >= demand }

// SetWeight changes the fair-share weight and re-solves the host. On a
// VM member only that VM's members are re-solved: a member's weight
// divides the VM's share among its members and never enters the
// top-level division of the machine (see PM.request). A native
// consumer is its own top-level group, so its weight re-solves the
// whole machine.
func (c *Consumer) SetWeight(w float64) {
	if c.host != nil {
		c.host.settle()
	}
	c.Weight = w
	if c.host != nil {
		c.host.reshare(c.vm)
	}
}

// Stop detaches the consumer without invoking callbacks. Stopping an
// already-detached consumer is a no-op.
func (c *Consumer) Stop() {
	if c.state != consumerRunning {
		return
	}
	host := c.host
	host.settle()
	c.detach()
	c.state = consumerIdle
	host.update()
}

// Kill detaches the consumer and invokes OnKilled. The Phase II IPS uses
// this for interfering tasks that must be re-run elsewhere (MapReduce
// regenerates them via speculative execution).
func (c *Consumer) Kill() {
	if c.state != consumerRunning {
		return
	}
	host := c.host
	host.settle()
	c.detach()
	c.state = consumerKilled
	host.update()
	if c.OnKilled != nil {
		c.OnKilled()
	}
}

// detach removes the consumer from its container without re-solving.
func (c *Consumer) detach() {
	c.cancelCompletion(c.host.cluster.engine)
	if c.vm != nil {
		c.vm.consumers = removeConsumer(c.vm.consumers, c)
	} else if c.host != nil {
		c.host.native = removeConsumer(c.host.native, c)
	}
	c.host = nil
	c.vm = nil
	c.alloc = resource.Vector{}
	c.speed = 0
}

// rekey points the consumer's completion event at now plus its remaining
// work over its speed, under sequence number key, or cancels it when the
// consumer is open-ended, detached or stalled (a later re-solve re-keys
// it).
func (c *Consumer) rekey(engine *sim.Engine, now time.Duration, key uint64) {
	if c.Work < 0 || c.state != consumerRunning || c.speed <= 0 {
		c.cancelCompletion(engine)
		return
	}
	sec := c.remaining / c.speed
	if math.IsNaN(sec) || math.IsInf(sec, 0) {
		c.cancelCompletion(engine)
		return
	}
	if c.completeFn == nil {
		c.completeFn = c.complete
	}
	c.completion = engine.Retime(c.completion, now+sim.DurationFromSeconds(sec), key, c.completeFn)
}

func (c *Consumer) cancelCompletion(engine *sim.Engine) {
	if c.completion != nil {
		engine.Cancel(c.completion)
		c.completion = nil
	}
}

func (c *Consumer) complete() {
	// The firing event is recycled by the engine once this callback
	// returns; drop the handle first so no later path cancels a stale one.
	c.completion = nil
	if c.state != consumerRunning {
		return
	}
	host := c.host
	host.settle()
	c.remaining = 0
	c.detach()
	c.state = consumerDone
	host.update()
	if c.OnComplete != nil {
		c.OnComplete()
	}
}

func removeConsumer(list []*Consumer, c *Consumer) []*Consumer {
	for i, x := range list {
		if x == c {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

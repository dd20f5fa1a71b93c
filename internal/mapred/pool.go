package mapred

import (
	"repro/internal/cluster"
	"repro/internal/resource"
)

// attemptConsumer is the resource container of one attempt at a time:
// the consumer the compute node runs, and the attempt it currently
// serves. Its OnComplete and OnKilled callbacks are bound once, when the
// JobTracker creates it, and read a when they fire, so a recycled
// consumer needs no new closures.
type attemptConsumer struct {
	cluster.Consumer
	a *Attempt
}

// consumerPool recycles the attempt consumers of one JobTracker. An
// ended attempt's consumer is retired into a quarantine and handed out
// again only once the engine has fired a later event: inside the event
// that ended the attempt, a caller may still hold the consumer it read
// first (the victims loops of a machine or VM failure, the IPS logging
// and throttling the consumer of the attempt it just relocated), and
// must not see it serving another attempt. A holder that lasts across
// events holds the Attempt instead, as the DRM's deferral map does.
type consumerPool struct {
	free []*attemptConsumer
	// retired holds the consumers retired during event retiredAt; they
	// join free at the first retire or take that sees a later event.
	retired   []*attemptConsumer
	retiredAt uint64
}

// promote moves the quarantined consumers to the free list once the
// engine has fired past the event that retired them.
func (p *consumerPool) promote(fired uint64) {
	if len(p.retired) == 0 || fired <= p.retiredAt {
		return
	}
	p.free = append(p.free, p.retired...)
	clear(p.retired)
	p.retired = p.retired[:0]
}

// retire quarantines a consumer whose attempt ended during event fired.
// The consumer must not be running.
func (p *consumerPool) retire(ac *attemptConsumer, fired uint64) {
	p.promote(fired)
	ac.a = nil
	p.retired = append(p.retired, ac)
	p.retiredAt = fired
}

// take returns a consumer free for reuse during event fired, or nil.
func (p *consumerPool) take(fired uint64) *attemptConsumer {
	p.promote(fired)
	n := len(p.free)
	if n == 0 {
		return nil
	}
	ac := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return ac
}

// putBack returns a consumer no one else has seen, one whose Start
// failed, straight to the free list.
func (p *consumerPool) putBack(ac *attemptConsumer) {
	ac.a = nil
	p.free = append(p.free, ac)
}

// newConsumer hands launch a consumer for attempt a: a recycled one
// when the pool has one free, else a fresh one with its callbacks bound.
// Name, Demand, Work, Weight and Cap are reset here; Start resets the
// rest of the run state.
func (jt *JobTracker) newConsumer(a *Attempt, name string, demand resource.Vector, work float64) *attemptConsumer {
	ac := jt.pool.take(jt.engine.Fired())
	if ac == nil {
		ac = &attemptConsumer{}
		ac.OnComplete = func() { jt.attemptFinished(ac.a) }
		ac.OnKilled = func() { jt.attemptKilled(ac.a) }
	}
	ac.a = a
	ac.Name = name
	ac.Demand = demand
	ac.Work = work
	ac.Weight = 0
	ac.Cap = resource.Vector{}
	return ac
}

package cluster

// SolveOnEveryChange makes c the reference the deferred re-solve is
// checked against: every re-solve request is solved, and its completion
// events re-keyed, the moment it is made, before any watcher registered
// later runs. Call it after the last AddPM. Inert cap swaps request no
// solve and notify no watcher, so the caller follows every operation
// with Flush as well.
func SolveOnEveryChange(c *Cluster) {
	for _, pm := range c.pms {
		pm.Watch(c.flush)
	}
}

// Flush solves and re-keys every PM with a pending request now, without
// the engine.
func Flush(c *Cluster) { c.flush() }

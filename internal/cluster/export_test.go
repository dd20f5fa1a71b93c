package cluster

// SolveOnEveryChange makes c the reference the deferred re-solve is
// checked against: every re-solve request is solved in full, and its
// completion events re-keyed, the moment it is made, before any watcher
// registered later runs. The machine is marked wholly stale first, so a
// member's cap or weight change that the deferred path re-solves for its
// VM alone is here re-solved from the top level down. Call it after the
// last AddPM. Inert cap swaps request no solve and notify no watcher, so
// the caller follows every operation with Flush as well.
func SolveOnEveryChange(c *Cluster) {
	for _, pm := range c.pms {
		pm.Watch(func() {
			pm.stale = true
			c.flush()
		})
	}
}

// Flush solves and re-keys every PM with a pending request now, without
// the engine.
func Flush(c *Cluster) { c.flush() }

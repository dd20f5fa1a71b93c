package core

import "repro/internal/policy"

// The Phase I placement types live in internal/policy, where the p1
// registry maps each policy name to a placer constructor; these aliases
// name the ones the System works with. A deployment chooses its placer
// through Config.Policies.
type (
	// Placement says which partition of the hybrid cluster a job runs on.
	Placement = policy.Placement
	// Placer decides, explains and audits the initial placement of a
	// batch job (Phase I).
	Placer = policy.Placer
)

// Placements.
const (
	PlacedNative  = policy.PlacedNative
	PlacedVirtual = policy.PlacedVirtual
)

package core

import "repro/internal/policy"

// The Phase I placement types live in internal/policy, behind the
// policy registry; these aliases name the ones the System works with.
// A deployment chooses its placer through Config.Policies.
type (
	// Placement says which partition of the hybrid cluster a job runs on.
	Placement = policy.Placement
	// Placer decides the initial placement of a batch job (Phase I).
	Placer = policy.Placer
	// ReasonedPlacer is an optional Placer extension that also explains
	// the decision; the System records the reason in the trace.
	ReasonedPlacer = policy.ReasonedPlacer
	// ExplainedPlacer additionally reports the candidates the placer
	// weighed, for the audit log.
	ExplainedPlacer = policy.ExplainedPlacer
	// ProfilingPlacer is HybridMR's Phase I scheduler (Algorithm 2).
	ProfilingPlacer = policy.ProfilingPlacer
)

// Placements.
const (
	PlacedNative  = policy.PlacedNative
	PlacedVirtual = policy.PlacedVirtual
)

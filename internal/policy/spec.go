package policy

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mapred"
)

// Spec is the textual selection of one policy per seam, plus the
// numeric knobs the search harness sweeps. The zero Spec selects the
// paper defaults everywhere. Field order here is the canonical key
// order of String(), which SEARCH.json uses as the candidate identity.
type Spec struct {
	// Phase1, DRM, IPS and Phase2 name registered policies; empty means
	// the paper default for that seam.
	Phase1 string `json:"p1,omitempty"`
	DRM    string `json:"drm,omitempty"`
	IPS    string `json:"ips,omitempty"`
	Phase2 string `json:"p2,omitempty"`
	// Overhead, when positive, overrides Phase I's virtual-overhead
	// tolerance (key "p1.overhead").
	Overhead float64 `json:"p1_overhead,omitempty"`
	// SpecSlowdown, when positive, overrides the Phase II straggler
	// threshold (key "p2.slowdown").
	SpecSlowdown float64 `json:"p2_slowdown,omitempty"`
}

// ParseSpec parses the -policy flag syntax: comma-separated key=value
// pairs with keys p1, drm, ips, p2, p1.overhead and p2.slowdown, e.g.
// "p2=jobdriven-p2,drm=static-split,p1.overhead=0.4". Policy names are
// validated here (via Resolve), so a typo fails before any setup runs.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("policy: %q is not key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "p1":
			spec.Phase1 = val
		case "drm":
			spec.DRM = val
		case "ips":
			spec.IPS = val
		case "p2":
			spec.Phase2 = val
		case "p1.overhead":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 {
				return Spec{}, fmt.Errorf("policy: p1.overhead wants a positive number, got %q", val)
			}
			spec.Overhead = f
		case "p2.slowdown":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 || f >= 1 {
				return Spec{}, fmt.Errorf("policy: p2.slowdown wants a number in (0,1), got %q", val)
			}
			spec.SpecSlowdown = f
		default:
			return Spec{}, fmt.Errorf("policy: unknown key %q (want p1, drm, ips, p2, p1.overhead or p2.slowdown)", key)
		}
	}
	if _, err := spec.Resolve(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// String renders the spec in canonical -policy syntax, defaults
// included, so equal policy bundles always render to equal strings.
func (s Spec) String() string {
	set, err := s.Resolve()
	if err != nil {
		return fmt.Sprintf("invalid policy spec: %v", err)
	}
	parts := []string{
		"p1=" + set.Phase1.Name(),
		"drm=" + set.DRM.Name(),
		"ips=" + set.IPS.Name(),
		"p2=" + set.Phase2.Name(),
	}
	if s.Overhead > 0 {
		parts = append(parts, fmt.Sprintf("p1.overhead=%g", s.Overhead))
	}
	if s.SpecSlowdown > 0 {
		parts = append(parts, fmt.Sprintf("p2.slowdown=%g", s.SpecSlowdown))
	}
	return strings.Join(parts, ",")
}

// Set is a resolved bundle of policies, one per seam — the one policy
// input of the wiring layers (core.Config, which the facade's
// ClusterSpec.Config carries, and testbed.Options).
type Set struct {
	// Spec is the selection the set was resolved from.
	Spec Spec
	// Phase1, DRM, IPS and Phase2 are the concrete policies.
	Phase1 Phase1Policy
	DRM    DRMPolicy
	IPS    IPSPolicy
	Phase2 Phase2Policy
}

// Phase2Setup translates the set's Phase II half into JobTracker
// arguments: the slot scheduler, and cfg with the straggler threshold
// filled in where cfg leaves it zero. A nil set is Default(). Every
// JobTracker built for a policy set takes its arguments from here.
func (s *Set) Phase2Setup(cfg mapred.Config) (mapred.Scheduler, mapred.Config) {
	if s == nil {
		s = Default()
	}
	if sl := s.Phase2.Speculation().Slowdown; sl > 0 && cfg.SpeculationSlowdown == 0 {
		cfg.SpeculationSlowdown = sl
	}
	return s.Phase2.NewScheduler(), cfg
}

// specSlowdownOverride wraps a Phase II policy with a swept straggler
// threshold.
type specSlowdownOverride struct {
	Phase2Policy
	slowdown float64
}

func (o specSlowdownOverride) Speculation() SpecParams {
	sp := o.Phase2Policy.Speculation()
	sp.Slowdown = o.slowdown
	return sp
}

// Resolve constructs the named policies, applying the numeric
// overrides. Unknown names error with the registered alternatives.
func (s Spec) Resolve() (*Set, error) {
	p1, err := NewPhase1(s.Phase1)
	if err != nil {
		return nil, err
	}
	drm, err := NewDRM(s.DRM)
	if err != nil {
		return nil, err
	}
	ips, err := NewIPS(s.IPS)
	if err != nil {
		return nil, err
	}
	p2, err := NewPhase2(s.Phase2)
	if err != nil {
		return nil, err
	}
	if s.Overhead > 0 {
		if pp, ok := p1.(PaperPhase1); ok {
			pp.Overhead = s.Overhead
			p1 = pp
		}
	}
	if s.SpecSlowdown > 0 {
		p2 = specSlowdownOverride{Phase2Policy: p2, slowdown: s.SpecSlowdown}
	}
	return &Set{Spec: s, Phase1: p1, DRM: drm, IPS: ips, Phase2: p2}, nil
}

// Default is the paper's policy set — the one every deployment uses
// unless told otherwise.
func Default() *Set {
	set, err := Spec{}.Resolve()
	if err != nil {
		panic(err) // the empty spec always resolves
	}
	return set
}

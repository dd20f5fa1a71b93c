package resource

import "slices"

// Claim is one consumer's request in a fair-share round for a single
// resource dimension.
type Claim struct {
	// Demand is how much the consumer wants (same units as capacity).
	Demand float64
	// Weight scales the consumer's fair share. Non-positive weights are
	// treated as 1.
	Weight float64
	// Cap is a hard upper bound on the allocation (for example a VM's
	// vCPU limit, or a cgroup throttle installed by the DRM). Zero or
	// negative means "no cap".
	Cap float64
}

func (c Claim) effWeight() float64 {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

func (c Claim) bound() float64 {
	b := c.Demand
	if c.Cap > 0 && c.Cap < b {
		b = c.Cap
	}
	if b < 0 {
		b = 0
	}
	return b
}

// ShareScratch holds the working buffers of fair-share solves. A caller
// that solves repeatedly keeps one and passes it to FairShareInto and
// ShareVectorInto, which then allocate nothing once the buffers have
// grown to the largest claim count seen. The zero value is ready to use.
// A scratch serves one solve at a time.
type ShareScratch struct {
	claims  []Claim
	allocs  []float64
	entries []shareEntry
}

// shareEntry is one positive claim in the water-filling order.
type shareEntry struct {
	idx     int
	bound   float64
	weight  float64
	perUnit float64 // bound / weight: the water level at which it saturates
}

// FairShare divides capacity among claims by weighted max-min fairness
// (progressive filling): every claim is granted min(bound, weighted share),
// and capacity freed by claims that need less than their share is
// redistributed to the rest. The returned slice is parallel to claims and
// sums to at most capacity.
//
// The algorithm sorts claims by bound/weight and fills in one pass, which
// is O(n log n) and exact for the water-filling solution.
func FairShare(capacity float64, claims []Claim) []float64 {
	return FairShareInto(make([]float64, len(claims)), capacity, claims, new(ShareScratch))
}

// FairShareInto is FairShare writing into dst (resized to len(claims)
// and reusing its storage) with its working set in s.
func FairShareInto(dst []float64, capacity float64, claims []Claim, s *ShareScratch) []float64 {
	alloc := resize(dst, len(claims))
	if capacity <= 0 || len(claims) == 0 {
		return alloc
	}

	entries := s.entries[:0]
	totalWeight := 0.0
	for i, c := range claims {
		b := c.bound()
		if b <= 0 {
			continue
		}
		w := c.effWeight()
		entries = append(entries, shareEntry{idx: i, bound: b, weight: w, perUnit: b / w})
		totalWeight += w
	}
	s.entries = entries
	// Same pdqsort as sort.Slice with the same comparisons, so equal
	// levels keep the same order and the fill sums stay bit-identical.
	slices.SortFunc(entries, func(a, b shareEntry) int {
		switch {
		case a.perUnit < b.perUnit:
			return -1
		case a.perUnit > b.perUnit:
			return 1
		}
		return 0
	})

	remaining := capacity
	for i, e := range entries {
		// Water level if the remaining capacity were spread over the
		// still-unsaturated claims.
		level := remaining / totalWeight
		if e.perUnit <= level {
			// Claim saturates below the water level: give it its bound.
			alloc[e.idx] = e.bound
			remaining -= e.bound
			totalWeight -= e.weight
			if remaining <= 0 {
				remaining = 0
			}
			continue
		}
		// All remaining claims are capacity-limited: split by weight.
		for _, e2 := range entries[i:] {
			alloc[e2.idx] = level * e2.weight
		}
		return alloc
	}
	return alloc
}

// ShareVector solves FairShare independently on each resource dimension.
// demands, weights and caps are parallel slices: weights applies to all
// dimensions of a consumer, caps may be the zero Vector for "no cap".
func ShareVector(capacity Vector, demands []Vector, weights []float64, caps []Vector) []Vector {
	return ShareVectorInto(make([]Vector, len(demands)), capacity, demands, weights, caps, new(ShareScratch))
}

// ShareVectorInto is ShareVector writing into dst (resized to
// len(demands) and reusing its storage) with its working set in s.
func ShareVectorInto(dst []Vector, capacity Vector, demands []Vector, weights []float64, caps []Vector, s *ShareScratch) []Vector {
	out := resize(dst, len(demands))
	s.claims = resize(s.claims, len(demands))
	for _, k := range Kinds() {
		for i := range demands {
			var w float64 = 1
			if weights != nil {
				w = weights[i]
			}
			var cap float64
			if caps != nil {
				cap = caps[i].Get(k)
			}
			s.claims[i] = Claim{Demand: demands[i].Get(k), Weight: w, Cap: cap}
		}
		s.allocs = FairShareInto(s.allocs, capacity.Get(k), s.claims, s)
		for i := range out {
			out[i] = out[i].Set(k, s.allocs[i])
		}
	}
	return out
}

// resize returns buf with length n and every element zeroed, reusing
// its storage when the capacity allows.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

package resource

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortSliceFairShare is the water-filling solver as it was written with
// sort.Slice: the reference FairShareInto must reproduce bit for bit,
// including the order in which equal levels are filled.
func sortSliceFairShare(capacity float64, claims []Claim) []float64 {
	alloc := make([]float64, len(claims))
	if capacity <= 0 || len(claims) == 0 {
		return alloc
	}
	type entry struct {
		idx                    int
		bound, weight, perUnit float64
	}
	var entries []entry
	totalWeight := 0.0
	for i, c := range claims {
		b := c.bound()
		if b <= 0 {
			continue
		}
		w := c.effWeight()
		entries = append(entries, entry{i, b, w, b / w})
		totalWeight += w
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].perUnit < entries[j].perUnit })
	remaining := capacity
	for i, e := range entries {
		level := remaining / totalWeight
		if e.perUnit <= level {
			alloc[e.idx] = e.bound
			remaining -= e.bound
			totalWeight -= e.weight
			if remaining <= 0 {
				remaining = 0
			}
			continue
		}
		for _, e2 := range entries[i:] {
			alloc[e2.idx] = level * e2.weight
		}
		return alloc
	}
	return alloc
}

// randomClaims draws claims whose levels (bound/weight) come from a
// small set while their bounds differ, so equal levels — ties in the
// sort — are common and the order they are filled in changes the
// rounding of the remaining capacity. Sizes fall on both sides of the
// sort's insertion-sort cutoff.
func randomClaims(rng *rand.Rand) []Claim {
	claims := make([]Claim, rng.Intn(120))
	for i := range claims {
		w := []float64{0, 0.5, 1, 2, 3}[rng.Intn(5)]
		level := float64(1+rng.Intn(5)) * 0.1
		claims[i] = Claim{Demand: level * max(w, 1), Weight: w}
		if rng.Intn(4) == 0 {
			claims[i].Cap = claims[i].Demand * 0.7
		}
	}
	return claims
}

// TestFairShareIntoMatchesSortSliceReference pins the scratch-buffer
// solver to the sort.Slice formulation bit for bit, with one scratch
// reused across every solve.
func TestFairShareIntoMatchesSortSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s ShareScratch
	var dst []float64
	for trial := 0; trial < 3000; trial++ {
		claims := randomClaims(rng)
		capacity := rng.Float64() * float64(len(claims)) * 0.3
		want := sortSliceFairShare(capacity, claims)
		dst = FairShareInto(dst, capacity, claims, &s)
		if len(dst) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(dst), len(want))
		}
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d claim %d: %v, want %v (claims %+v, capacity %v)",
					trial, i, dst[i], want[i], claims, capacity)
			}
		}
	}
}

// TestShareVectorIntoMatchesShareVector checks the scratch variant
// against the allocating wrapper across shrinking and growing inputs.
func TestShareVectorIntoMatchesShareVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s ShareScratch
	var dst []Vector
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(20)
		demands := make([]Vector, n)
		weights := make([]float64, n)
		caps := make([]Vector, n)
		for i := range demands {
			demands[i] = NewVector(float64(rng.Intn(4)), float64(rng.Intn(3))*512, float64(rng.Intn(5))*20, float64(rng.Intn(5))*15)
			weights[i] = float64(rng.Intn(3))
			caps[i] = NewVector(float64(rng.Intn(3)), 0, float64(rng.Intn(3))*30, 0)
		}
		capacity := NewVector(2, 4096, 90, 117)
		want := ShareVector(capacity, demands, weights, caps)
		dst = ShareVectorInto(dst, capacity, demands, weights, caps, &s)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d consumer %d: %v, want %v", trial, i, dst[i], want[i])
			}
		}
	}
}

// TestShareVectorIntoZeroAlloc pins the steady state: once the scratch
// and destination have grown, a solve allocates nothing.
func TestShareVectorIntoZeroAlloc(t *testing.T) {
	demands, weights, caps := shareBenchInput(8)
	capacity := NewVector(2, 4096, 90, 117)
	var s ShareScratch
	dst := ShareVectorInto(nil, capacity, demands, weights, caps, &s)
	allocs := testing.AllocsPerRun(100, func() {
		dst = ShareVectorInto(dst, capacity, demands, weights, caps, &s)
	})
	if allocs != 0 {
		t.Errorf("ShareVectorInto allocates %.1f times per solve, want 0", allocs)
	}
}

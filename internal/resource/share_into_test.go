package resource

import (
	"math"
	"math/rand"
	"slices"
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

// pdqsortFairShare is FairShareInto as it was before its insertion-sort
// fast path: every entry list, however short, goes through
// slices.SortFunc. The kernel must reproduce it bit for bit.
func pdqsortFairShare(capacity float64, claims []Claim) []float64 {
	alloc := make([]float64, len(claims))
	if capacity <= 0 || len(claims) == 0 {
		return alloc
	}
	var entries []shareEntry
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

// kernelClaims draws n claims from small grids: levels repeat, so ties
// in the sort are common; weights include zero and negative ones (both
// count as 1); caps sit below, at or above the demand or are unset;
// some demands are zero.
func kernelClaims(rng *rand.Rand, n int) []Claim {
	claims := make([]Claim, n)
	for i := range claims {
		w := []float64{-1, 0, 0.5, 1, 2, 3}[rng.Intn(6)]
		demand := float64(rng.Intn(5)) * 0.1 * max(w, 1)
		var cap float64
		switch rng.Intn(4) {
		case 0:
			cap = demand * 0.7
		case 1:
			cap = demand
		case 2:
			cap = demand * 1.5
		}
		claims[i] = Claim{Demand: demand, Weight: w, Cap: cap}
	}
	return claims
}

// TestKernelMatchesPdqsortReference pins both fast paths of the kernel
// bit for bit against pdqsortFairShare: FairShareInto's inline
// insertion sort on both sides of the 12/13 cutoff, and
// ShareVectorInto's closed form for a single claimant, including zero
// capacity.
func TestKernelMatchesPdqsortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var s ShareScratch
	var dst []float64
	var vdst []Vector
	for n := 1; n <= 14; n++ {
		for trial := 0; trial < 400; trial++ {
			claims := kernelClaims(rng, n)
			capacity := []float64{0, rng.Float64() * float64(n) * 0.3, float64(n)}[rng.Intn(3)]
			want := pdqsortFairShare(capacity, claims)
			dst = FairShareInto(dst, capacity, claims, &s)
			for i := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n %d trial %d claim %d: %v, want %v (claims %+v, capacity %v)",
						n, trial, i, dst[i], want[i], claims, capacity)
				}
			}

			// The same claims as one dimension of a vector solve, every
			// other dimension drawn afresh.
			demands := make([]Vector, n)
			weights := make([]float64, n)
			caps := make([]Vector, n)
			var capVec Vector
			dims := make([][]Claim, NumKinds)
			for _, k := range Kinds() {
				dim := claims
				c := capacity
				if k != CPU {
					dim = kernelClaims(rng, n)
					c = []float64{0, rng.Float64() * float64(n)}[rng.Intn(2)]
				}
				capVec[k.index()] = c
				for i := range dim {
					dim[i].Weight = claims[i].Weight
					demands[i][k.index()] = dim[i].Demand
					caps[i][k.index()] = dim[i].Cap
				}
				dims[k.index()] = dim
			}
			for i := range claims {
				weights[i] = claims[i].Weight
			}
			vdst = ShareVectorInto(vdst, capVec, demands, weights, caps, &s)
			for _, k := range Kinds() {
				want := pdqsortFairShare(capVec.Get(k), dims[k.index()])
				for i := range want {
					if math.Float64bits(vdst[i].Get(k)) != math.Float64bits(want[i]) {
						t.Fatalf("n %d trial %d %v claim %d: %v, want %v (claims %+v, capacity %v)",
							n, trial, k, i, vdst[i].Get(k), want[i], dims[k.index()], capVec.Get(k))
					}
				}
			}
		}
	}
}

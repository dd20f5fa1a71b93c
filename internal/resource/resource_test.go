package resource

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVectorAccessors(t *testing.T) {
	v := NewVector(2, 1024, 80, 100)
	tests := []struct {
		kind Kind
		want float64
	}{
		{CPU, 2},
		{Memory, 1024},
		{DiskIO, 80},
		{NetIO, 100},
	}
	for _, tt := range tests {
		if got := v.Get(tt.kind); got != tt.want {
			t.Errorf("Get(%s) = %v, want %v", tt.kind, got, tt.want)
		}
	}
	v2 := v.Set(CPU, 4)
	if v2.Get(CPU) != 4 {
		t.Errorf("Set(CPU, 4).Get(CPU) = %v", v2.Get(CPU))
	}
	if v.Get(CPU) != 2 {
		t.Errorf("Set mutated receiver: %v", v.Get(CPU))
	}
}

func TestVectorArithmetic(t *testing.T) {
	a := NewVector(1, 2, 3, 4)
	b := NewVector(4, 3, 2, 1)
	if got := a.Add(b); got != NewVector(5, 5, 5, 5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != NewVector(-3, -1, 1, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != NewVector(2, 4, 6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Min(b); got != NewVector(1, 2, 2, 1) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != NewVector(4, 3, 3, 4) {
		t.Errorf("Max = %v", got)
	}
}

func TestVectorDivZeroMeansUnused(t *testing.T) {
	a := NewVector(10, 0, 5, 0)
	b := NewVector(2, 0, 0, 4)
	got := a.Div(b)
	if got.Get(CPU) != 5 {
		t.Errorf("Div cpu = %v, want 5", got.Get(CPU))
	}
	if got.Get(Memory) != 0 || got.Get(DiskIO) != 0 {
		t.Errorf("Div by zero should be 0, got %v", got)
	}
}

func TestVectorPredicates(t *testing.T) {
	var zero Vector
	if !zero.IsZero() {
		t.Error("zero vector IsZero() = false")
	}
	if NewVector(0, 0, 0, 1).IsZero() {
		t.Error("nonzero vector IsZero() = true")
	}
}

func TestFairShareUncontended(t *testing.T) {
	claims := []Claim{{Demand: 10}, {Demand: 20}, {Demand: 30}}
	got := FairShare(100, claims)
	for i, want := range []float64{10, 20, 30} {
		if !almostEq(got[i], want) {
			t.Errorf("alloc[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestFairShareContendedEqualWeights(t *testing.T) {
	claims := []Claim{{Demand: 100}, {Demand: 100}, {Demand: 100}, {Demand: 100}}
	got := FairShare(100, claims)
	for i := range got {
		if !almostEq(got[i], 25) {
			t.Errorf("alloc[%d] = %v, want 25", i, got[i])
		}
	}
}

func TestFairShareMaxMinRedistribution(t *testing.T) {
	// One small claim frees capacity that the two big claims split.
	claims := []Claim{{Demand: 10}, {Demand: 100}, {Demand: 100}}
	got := FairShare(100, claims)
	if !almostEq(got[0], 10) {
		t.Errorf("small claim = %v, want its full 10", got[0])
	}
	if !almostEq(got[1], 45) || !almostEq(got[2], 45) {
		t.Errorf("big claims = %v, %v, want 45 each", got[1], got[2])
	}
}

func TestFairShareWeights(t *testing.T) {
	claims := []Claim{
		{Demand: 100, Weight: 3},
		{Demand: 100, Weight: 1},
	}
	got := FairShare(100, claims)
	if !almostEq(got[0], 75) || !almostEq(got[1], 25) {
		t.Errorf("weighted allocs = %v, want [75 25]", got)
	}
}

func TestFairShareCap(t *testing.T) {
	claims := []Claim{
		{Demand: 100, Cap: 20},
		{Demand: 100},
	}
	got := FairShare(100, claims)
	if !almostEq(got[0], 20) {
		t.Errorf("capped claim = %v, want 20", got[0])
	}
	if !almostEq(got[1], 80) {
		t.Errorf("uncapped claim = %v, want 80", got[1])
	}
}

func TestFairShareZeroAndNegativeDemand(t *testing.T) {
	claims := []Claim{{Demand: 0}, {Demand: -5}, {Demand: 50}}
	got := FairShare(100, claims)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("zero/negative demand got allocation: %v", got)
	}
	if !almostEq(got[2], 50) {
		t.Errorf("real claim = %v, want 50", got[2])
	}
}

func TestFairShareNoCapacity(t *testing.T) {
	got := FairShare(0, []Claim{{Demand: 10}})
	if got[0] != 0 {
		t.Errorf("alloc with zero capacity = %v", got[0])
	}
	if got := FairShare(10, nil); len(got) != 0 {
		t.Errorf("nil claims gave %v", got)
	}
}

// Property: allocations never exceed capacity, never exceed demand or cap,
// and are never negative — for any random claim set.
func TestFairShareInvariants(t *testing.T) {
	f := func(rawDemands []uint16, capacity uint16) bool {
		if len(rawDemands) == 0 {
			return true
		}
		if len(rawDemands) > 64 {
			rawDemands = rawDemands[:64]
		}
		claims := make([]Claim, len(rawDemands))
		for i, d := range rawDemands {
			claims[i] = Claim{
				Demand: float64(d % 1000),
				Weight: float64(d%7) + 0.5,
				Cap:    float64(d % 500),
			}
		}
		cap := float64(capacity % 2000)
		allocs := FairShare(cap, claims)
		total := 0.0
		for i, a := range allocs {
			if a < -1e-9 {
				return false
			}
			if a > claims[i].bound()+1e-9 {
				return false
			}
			total += a
		}
		return total <= cap+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: when capacity is scarce, it is fully used (work-conserving).
func TestFairShareWorkConserving(t *testing.T) {
	f := func(seed uint32) bool {
		n := int(seed%10) + 2
		claims := make([]Claim, n)
		totalDemand := 0.0
		for i := range claims {
			d := float64((seed>>uint(i%16))%50) + 10
			claims[i] = Claim{Demand: d}
			totalDemand += d
		}
		cap := totalDemand / 2 // scarce
		allocs := FairShare(cap, claims)
		total := 0.0
		for _, a := range allocs {
			total += a
		}
		return math.Abs(total-cap) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestShareVector(t *testing.T) {
	capacity := NewVector(4, 4096, 100, 100)
	demands := []Vector{
		NewVector(4, 1024, 0, 0),
		NewVector(4, 1024, 100, 0),
	}
	got := ShareVector(capacity, demands, nil, nil)
	if !almostEq(got[0].Get(CPU), 2) || !almostEq(got[1].Get(CPU), 2) {
		t.Errorf("cpu split = %v / %v, want 2 / 2", got[0].Get(CPU), got[1].Get(CPU))
	}
	if !almostEq(got[0].Get(Memory), 1024) {
		t.Errorf("memory = %v, want full 1024", got[0].Get(Memory))
	}
	if !almostEq(got[1].Get(DiskIO), 100) {
		t.Errorf("disk = %v, want full 100 (no contention)", got[1].Get(DiskIO))
	}
}

func TestShareVectorCaps(t *testing.T) {
	capacity := NewVector(4, 4096, 100, 100)
	demands := []Vector{NewVector(4, 0, 0, 0), NewVector(4, 0, 0, 0)}
	caps := []Vector{NewVector(1, 0, 0, 0), {}}
	got := ShareVector(capacity, demands, nil, caps)
	if !almostEq(got[0].Get(CPU), 1) {
		t.Errorf("capped consumer cpu = %v, want 1", got[0].Get(CPU))
	}
	if !almostEq(got[1].Get(CPU), 3) {
		t.Errorf("uncapped consumer cpu = %v, want 3", got[1].Get(CPU))
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{CPU, "cpu"}, {Memory, "mem"}, {DiskIO, "dio"}, {NetIO, "nio"}, {Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

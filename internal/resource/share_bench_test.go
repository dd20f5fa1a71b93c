package resource

import "testing"

// The fair-share microbenchmarks measure one solve of the kernel every
// PM re-solve runs twice over (once across VMs and native consumers,
// once inside each VM): the allocating wrapper against the scratch form
// the cluster uses.

// shareBenchInput builds n contending consumers with mixed weights and
// a cap on every third one.
func shareBenchInput(n int) (demands []Vector, weights []float64, caps []Vector) {
	for i := 0; i < n; i++ {
		demands = append(demands, NewVector(1+float64(i%3)*0.5, 512, 20+float64(i%4)*15, 10+float64(i%5)*8))
		weights = append(weights, float64(1+i%2))
		var c Vector
		if i%3 == 0 {
			c = NewVector(0.75, 0, 25, 0)
		}
		caps = append(caps, c)
	}
	return demands, weights, caps
}

func BenchmarkShareVector(b *testing.B) {
	demands, weights, caps := shareBenchInput(8)
	capacity := NewVector(2, 4096, 90, 117)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ShareVector(capacity, demands, weights, caps)
	}
}

func BenchmarkShareVectorInto(b *testing.B) {
	demands, weights, caps := shareBenchInput(8)
	capacity := NewVector(2, 4096, 90, 117)
	var s ShareScratch
	var dst []Vector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = ShareVectorInto(dst, capacity, demands, weights, caps, &s)
	}
}

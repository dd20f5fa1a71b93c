package audit

import (
	"io"
	"strconv"
	"testing"
	"time"
)

// BenchmarkAuditWriteJSONL measures exporting a full default-capacity
// ring of JobTracker assignment records, eight scored candidates each,
// after the ring has wrapped.
func BenchmarkAuditWriteJSONL(b *testing.B) {
	clk := &fakeClock{}
	l := New(0)
	l.SetClock(clk)
	cands := make([]Candidate, 8)
	for i := 0; i < DefaultCap+DefaultCap/4; i++ {
		clk.now += 1700 * time.Microsecond
		for j := range cands {
			cands[j] = Candidate{Name: "tt-" + strconv.Itoa((i+j)%64), Score: float64(i%97) / 13,
				Chosen: j == 0, Note: "machine pressure"}
		}
		l.Add("mapred", "assign", "Sort-"+strconv.Itoa(i/200)+"/map-"+strconv.Itoa(i%200),
			cands[0].Name, "capacity-aware: least-pressure machine first", cands...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuditAdd measures recording one JobTracker assignment with
// eight scored candidates on a wrapped default-capacity ring; it
// allocates nothing per record.
func BenchmarkAuditAdd(b *testing.B) {
	clk := &fakeClock{}
	l := New(0)
	l.SetClock(clk)
	cands := make([]Candidate, 8)
	for j := range cands {
		cands[j] = Candidate{Name: "tt-" + strconv.Itoa(j), Score: float64(j) / 13,
			Chosen: j == 0, Note: "machine pressure"}
	}
	for i := 0; i < DefaultCap+DefaultCap/4; i++ {
		l.Add("mapred", "assign", "Sort-1/map-7", "tt-0", "capacity-aware: least-pressure machine first", cands...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.now += 1700 * time.Microsecond
		l.Add("mapred", "assign", "Sort-1/map-7", "tt-0", "capacity-aware: least-pressure machine first", cands...)
	}
}

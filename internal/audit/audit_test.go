package audit

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.SetClock(&fakeClock{})
	l.Add("phase1", "place", "job", "native", "cheaper")
	if l.Len() != 0 || l.Dropped() != 0 || l.Records() != nil {
		t.Error("nil log should be an inert no-op")
	}
	if got := l.Filter(func(Record) bool { return true }); got != nil {
		t.Errorf("nil log Filter = %v, want nil", got)
	}
}

func TestAddStampsAndSequences(t *testing.T) {
	clk := &fakeClock{}
	l := New(8)
	l.SetClock(clk)
	clk.now = 3 * time.Second
	l.Add("phase1", "place", "Sort#1", "native", "lower estimated JCT",
		Candidate{Name: "native", Score: 120, Chosen: true},
		Candidate{Name: "virtual", Score: 150})
	clk.now = 5 * time.Second
	l.Add("ips", "throttle", "vm-1", "throttle", "SLA violation")

	recs := l.Records()
	if len(recs) != 2 {
		t.Fatalf("Len = %d, want 2", len(recs))
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Errorf("seqs = %d,%d want 1,2", recs[0].Seq, recs[1].Seq)
	}
	if recs[0].At != 3*time.Second || recs[1].At != 5*time.Second {
		t.Errorf("timestamps = %v,%v", recs[0].At, recs[1].At)
	}
	if len(recs[0].Candidates) != 2 || !recs[0].Candidates[0].Chosen {
		t.Errorf("candidates not retained: %+v", recs[0].Candidates)
	}
}

func TestRingDropsOldest(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Add("s", "a", "subject", "d", "")
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if l.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", l.Dropped())
	}
	recs := l.Records()
	for i, r := range recs {
		if want := uint64(7 + i); r.Seq != want {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, want)
		}
	}
}

func TestWriteJSONLIsDeterministic(t *testing.T) {
	build := func() *Log {
		clk := &fakeClock{now: 1500 * time.Millisecond}
		l := New(0)
		l.SetClock(clk)
		l.Add("drm", "cap-grant", "pm-1/map", "granted 2 slots", "headroom available",
			Candidate{Name: "sort-1", Score: 0.5, Chosen: true, Note: "benefit"},
			Candidate{Name: "grep-2", Score: 0.25, Note: "benefit"})
		return l
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical logs exported different bytes")
	}
	line := strings.TrimSpace(a.String())
	for _, want := range []string{
		`"seq":1`, `"ts_us":1500000`, `"subsystem":"drm"`, `"action":"cap-grant"`,
		`"subject":"pm-1/map"`, `"decision":"granted 2 slots"`,
		`"chosen":true`, `"note":"benefit"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("JSONL lacks %s:\n%s", want, line)
		}
	}
	if strings.Contains(line, `"chosen":false`) {
		t.Error("chosen:false should be omitted")
	}
}

func TestFilter(t *testing.T) {
	l := New(0)
	l.Add("phase1", "place", "a", "native", "")
	l.Add("ips", "pause", "b", "pause", "")
	l.Add("phase1", "place", "c", "virtual", "")
	got := l.Filter(func(r Record) bool { return r.Subsystem == "phase1" })
	if len(got) != 2 || got[0].Subject != "a" || got[1].Subject != "c" {
		t.Errorf("Filter = %+v", got)
	}
}

func TestLast(t *testing.T) {
	l := New(3)
	if _, ok := l.Last(); ok {
		t.Fatal("Last on an empty log reported a record")
	}
	for i, subject := range []string{"a", "b", "c", "d"} {
		l.Add("s", "a", subject, "d", "", Candidate{Name: subject, Score: float64(i)})
		r, ok := l.Last()
		if !ok || r.Seq != uint64(i+1) || r.Subject != subject ||
			len(r.Candidates) != 1 || r.Candidates[0].Name != subject {
			t.Fatalf("after adding %s: Last = %+v, %v", subject, r, ok)
		}
		r.Candidates[0].Name = "mutated"
	}
	if recs := l.Records(); recs[len(recs)-1].Candidates[0].Name != "d" {
		t.Error("mutating Last's candidates changed the log")
	}
}

// TestCandidatesAreCopiedInAndOut checks the ownership contract: Add
// copies the caller's candidates and Records returns deep copies, so
// mutating either slice afterwards changes neither a later Records nor
// the export, before and after the ring wraps.
func TestCandidatesAreCopiedInAndOut(t *testing.T) {
	for _, n := range []int{3, 10} { // within the capacity of 4, then wrapped
		l := New(4)
		cands := make([]Candidate, 2)
		for i := 0; i < n; i++ {
			cands[0] = Candidate{Name: "tt-" + strconv.Itoa(i), Score: float64(i), Chosen: true, Note: "pressure"}
			cands[1] = Candidate{Name: "tt-" + strconv.Itoa(i+1), Score: float64(i) / 2}
			l.Add("mapred", "assign", "map-"+strconv.Itoa(i), cands[0].Name, "reason", cands...)
		}
		want := l.Records()
		var export bytes.Buffer
		if err := l.WriteJSONL(&export); err != nil {
			t.Fatal(err)
		}

		cands[0] = Candidate{Name: "caller-mutated", Score: -1}
		got := l.Records()
		for i := range got {
			got[i].Candidates[0] = Candidate{Name: "result-mutated", Score: -2}
			got[i].Candidates = append(got[i].Candidates, Candidate{Name: "appended"})
		}
		if again := l.Records(); !reflect.DeepEqual(again, want) {
			t.Errorf("n=%d: Records after mutation = %+v, want %+v", n, again, want)
		}
		var after bytes.Buffer
		if err := l.WriteJSONL(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Bytes(), export.Bytes()) {
			t.Errorf("n=%d: export changed after mutation:\n%s\nwant:\n%s", n, after.String(), export.String())
		}
	}
}

// TestWrappedAddDoesNotAllocate pins the recycling ring: once wrapped,
// Add encodes the record into chunks the dropped records left behind
// and allocates nothing.
func TestWrappedAddDoesNotAllocate(t *testing.T) {
	l := New(64)
	l.SetClock(&fakeClock{})
	cands := make([]Candidate, 8)
	for i := range cands {
		cands[i] = Candidate{Name: "tt-" + strconv.Itoa(i), Score: float64(i), Note: "machine pressure"}
	}
	for i := 0; i < 100; i++ {
		l.Add("mapred", "assign", "map-1", "tt-0", "capacity-aware", cands...)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Add("mapred", "assign", "map-1", "tt-0", "capacity-aware", cands...)
	}); allocs != 0 {
		t.Errorf("Add on a wrapped ring: %v allocs/op, want 0", allocs)
	}
}

package audit

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// jsonCandidate and jsonRecord are the encoding/json schema WriteJSONL
// was first written against; the hand-written encoder must match the
// bytes they give.
type jsonCandidate struct {
	Name   string  `json:"name"`
	Score  float64 `json:"score"`
	Chosen bool    `json:"chosen,omitempty"`
	Note   string  `json:"note,omitempty"`
}

type jsonRecord struct {
	Seq        uint64          `json:"seq"`
	TsUs       int64           `json:"ts_us"`
	Subsystem  string          `json:"subsystem"`
	Action     string          `json:"action"`
	Subject    string          `json:"subject"`
	Decision   string          `json:"decision"`
	Reason     string          `json:"reason,omitempty"`
	Candidates []jsonCandidate `json:"candidates,omitempty"`
}

func refWriteJSONL(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		jr := jsonRecord{Seq: r.Seq, TsUs: r.At.Microseconds(), Subsystem: r.Subsystem,
			Action: r.Action, Subject: r.Subject, Decision: r.Decision, Reason: r.Reason}
		for _, c := range r.Candidates {
			jr.Candidates = append(jr.Candidates, jsonCandidate{
				Name: c.Name, Score: c.Score, Chosen: c.Chosen, Note: c.Note})
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return nil
}

var trickyStrings = []string{
	"", "phase1", "mapred", "Sort-3/map-12", "tt-4", "a<b>&c", `q"uo\te`,
	"ctl\x00\x01\x1f\x7f", "ws\b\f\n\r\t", "bad\xff\xfeutf8", "cut\xe2\x82",
	"ls\u2028ps\u2029", "\u00e9\u65e5\U0001F600",
}

var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e21, 5e-324, 1e-6, 9.99e20,
	1.5e-10, 3.25, -42, 1.0 / 3, math.Inf(1),
}

// randomLog fills a log of the given capacity with n seeded records.
func randomLog(seed int64, capacity, n int) *Log {
	rng := rand.New(rand.NewSource(seed))
	str := func() string { return trickyStrings[rng.Intn(len(trickyStrings))] }
	clk := &fakeClock{}
	l := New(capacity)
	l.SetClock(clk)
	for i := 0; i < n; i++ {
		clk.now += time.Duration(rng.Intn(5000)) * time.Microsecond / 3
		var cands []Candidate
		for j, k := 0, rng.Intn(4); j < k; j++ {
			score := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
			if rng.Intn(4) == 0 {
				score = trickyFloats[rng.Intn(len(trickyFloats)-1)] // all but +Inf
			}
			cands = append(cands, Candidate{Name: str(), Score: score,
				Chosen: rng.Intn(2) == 0, Note: str()})
		}
		l.Add(str(), str(), str(), str(), str(), cands...)
	}
	return l
}

func TestWriteJSONLMatchesEncodingJSONReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		capacity, n := 64, int(seed*7) // wraps the ring from seed 10 on
		l := randomLog(seed, capacity, n)
		var got, want bytes.Buffer
		if err := l.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteJSONL(&want, l.Records()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d (dropped %d): export differs from reference\n got: %.300s\nwant: %.300s",
				seed, l.Dropped(), got.String(), want.String())
		}
	}
}

func TestWriteJSONLRejectsNonFiniteScores(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := New(8)
		l.Add("mapred", "assign", "ok", "tt-0", "")
		l.Add("mapred", "assign", "bad", "tt-1", "", Candidate{Name: "tt-1", Score: v})
		var buf bytes.Buffer
		if err := l.WriteJSONL(&buf); err == nil {
			t.Errorf("score %v: no error", v)
		}
		var ref bytes.Buffer
		refWriteJSONL(&ref, l.Records())
		if buf.String() != ref.String() {
			t.Errorf("score %v: wrote %q before failing, reference wrote %q", v, buf.String(), ref.String())
		}
	}
}

// countingWriter counts Write calls.
type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestWriteJSONLIsBuffered checks that the export writes in buffer-sized
// blocks, not once per record.
func TestWriteJSONLIsBuffered(t *testing.T) {
	l := randomLog(3, 4096, 4096)
	var w countingWriter
	if err := l.WriteJSONL(&w); err != nil {
		t.Fatal(err)
	}
	if max := w.bytes/4096 + 1; w.writes > max {
		t.Fatalf("%d records, %d bytes: %d writes, want at most %d", l.Len(), w.bytes, w.writes, max)
	}
}

// TestWriteJSONLAllocsIndependentOfRecords pins the export's allocation
// count: the line buffer and the bufio.Writer are reused, so a hundred
// times more records cost no more allocations.
func TestWriteJSONLAllocsIndependentOfRecords(t *testing.T) {
	fill := func(n int) *Log {
		l := New(n)
		for i := 0; i < n; i++ {
			l.Add("mapred", "assign", "Sort-1/map-"+strconv.Itoa(i), "tt-3",
				"capacity-aware: least-pressure machine first",
				Candidate{Name: "tt-3", Score: 1.25, Chosen: true, Note: "machine pressure"},
				Candidate{Name: "tt-4", Score: 2.5, Note: "machine pressure"})
		}
		return l
	}
	small, large := fill(100), fill(10000)
	allocs := func(l *Log) float64 {
		return testing.AllocsPerRun(20, func() { l.WriteJSONL(io.Discard) })
	}
	if a, b := allocs(small), allocs(large); b > a {
		t.Fatalf("WriteJSONL: %v allocs for 100 records, %v for 10000", a, b)
	}
}

// TestWrappedRingMatchesEncodingJSONReference exports wrapped rings of
// records carrying 0, 1, 8 and 20 candidates in seeded order and checks
// the bytes against encoding/json's for the last cap records added, as
// the test kept them rather than as the log returns them.
func TestWrappedRingMatchesEncodingJSONReference(t *testing.T) {
	sizes := []int{0, 1, 8, 20}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{5, 64, 1500}[seed%3] // 1500 spans two chunks
		clk := &fakeClock{}
		l := New(capacity)
		l.SetClock(clk)
		var added []Record
		for i, n := 0, capacity*2+rng.Intn(capacity); i < n; i++ {
			clk.now += time.Duration(rng.Intn(4000)) * time.Microsecond
			cands := make([]Candidate, sizes[rng.Intn(len(sizes))])
			for j := range cands {
				cands[j] = Candidate{Name: trickyStrings[rng.Intn(len(trickyStrings))],
					Score: rng.NormFloat64() * 100, Chosen: rng.Intn(3) == 0,
					Note: trickyStrings[rng.Intn(len(trickyStrings))]}
			}
			r := Record{
				Seq:        uint64(i + 1),
				At:         clk.now,
				Subsystem:  "mapred",
				Action:     "assign",
				Subject:    "map-" + strconv.Itoa(i),
				Decision:   "tt-" + strconv.Itoa(i%7),
				Reason:     trickyStrings[rng.Intn(len(trickyStrings))],
				Candidates: append([]Candidate(nil), cands...),
			}
			added = append(added, r)
			l.Add(r.Subsystem, r.Action, r.Subject, r.Decision, r.Reason, cands...)
		}
		var got, want bytes.Buffer
		if err := l.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteJSONL(&want, added[len(added)-capacity:]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d (cap %d, dropped %d): export differs from reference\n got: %.300s\nwant: %.300s",
				seed, capacity, l.Dropped(), got.String(), want.String())
		}
	}
}

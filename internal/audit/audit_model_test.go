package audit

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// The model tests drive the log and a plain []Record reference with the
// same seeded records and compare every read path.

var (
	modelSubsystems = []string{"phase1", "drm", "mapred", "a<b>&c"}
	modelActions    = []string{"place", "cap-grant", "assign", `q"uo\te`}
	modelNotes      = []string{"", "machine pressure", "predicted benefit (s)", "ls\u2028ps\u2029"}
	// boundaryLens are string lengths on both sides of the one- and
	// two-byte uvarint limits; 16,384 bytes also exceeds a chunk.
	boundaryLens = []int{0, 127, 128, 16383, 16384}
)

// escapeString returns an n-byte string mixing letters with bytes JSON
// escapes: quotes, backslashes, control and HTML characters and
// invalid UTF-8.
func escapeString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		switch rng.Intn(10) {
		case 0:
			b[i] = '"'
		case 1:
			b[i] = '\\'
		case 2:
			b[i] = '\n'
		case 3:
			b[i] = '<'
		case 4:
			b[i] = 0xff
		default:
			b[i] = byte('a' + rng.Intn(26))
		}
	}
	return string(b)
}

// recordGen draws seeded records: one in longEvery subjects, decisions
// and reasons has a boundary length (one in ten times as many
// candidate names), and one in manyEvery records carries more than
// 127 candidates.
type recordGen struct {
	rng                  *rand.Rand
	long                 []string
	longEvery, manyEvery int
	now                  time.Duration
}

func newRecordGen(seed int64, longEvery, manyEvery int) *recordGen {
	g := &recordGen{rng: rand.New(rand.NewSource(seed)), longEvery: longEvery, manyEvery: manyEvery}
	for _, n := range boundaryLens {
		g.long = append(g.long, escapeString(g.rng, n))
	}
	return g
}

func (g *recordGen) str(every int) string {
	if g.rng.Intn(every) == 0 {
		return g.long[g.rng.Intn(len(g.long))]
	}
	return trickyStrings[g.rng.Intn(len(trickyStrings))]
}

func (g *recordGen) next(seq uint64) Record {
	g.now += time.Duration(g.rng.Intn(5000)) * time.Microsecond / 3
	r := Record{
		Seq:       seq,
		At:        g.now,
		Subsystem: modelSubsystems[g.rng.Intn(len(modelSubsystems))],
		Action:    modelActions[g.rng.Intn(len(modelActions))],
		Subject:   g.str(g.longEvery),
		Decision:  g.str(g.longEvery),
		Reason:    g.str(g.longEvery),
	}
	n := g.rng.Intn(4)
	if g.rng.Intn(g.manyEvery) == 0 {
		n = 128 + g.rng.Intn(64)
	}
	for i := 0; i < n; i++ {
		r.Candidates = append(r.Candidates, Candidate{
			Name:   g.str(10 * g.longEvery),
			Score:  g.rng.NormFloat64() * math.Pow(10, float64(g.rng.Intn(30)-15)),
			Chosen: g.rng.Intn(3) == 0,
			Note:   modelNotes[g.rng.Intn(len(modelNotes))],
		})
	}
	return r
}

// reused is a caller's scratch: buffers it reuses for every record.
type reused struct {
	subsystem, subject []byte
	cands              []Candidate
}

// add adds r the way a caller reusing its buffers would: the subsystem
// and subject are views of the caller's buffers and the candidates are
// copied into its slice, and all three are overwritten once Add
// returns. A subsystem view sits at the same address as the last one,
// whatever its bytes.
func (u *reused) add(l *Log, r Record) {
	view := func(buf *[]byte, s string) string {
		*buf = append((*buf)[:0], s...)
		return unsafe.String(unsafe.SliceData(*buf), len(*buf))
	}
	u.cands = append(u.cands[:0], r.Candidates...)
	l.Add(view(&u.subsystem, r.Subsystem), r.Action, view(&u.subject, r.Subject), r.Decision, r.Reason, u.cands...)
	for _, b := range [][]byte{u.subsystem, u.subject} {
		for i := range b {
			b[i] = 'X'
		}
	}
	for i := range u.cands {
		u.cands[i] = Candidate{Name: "overwritten", Score: -1, Note: "overwritten"}
	}
}

// checkLog compares every read path of l with want, the records it
// should retain, given that added records have been added in all.
func checkLog(t *testing.T, l *Log, want []Record, added int, full bool) {
	t.Helper()
	if l.Len() != len(want) || l.Dropped() != uint64(added-len(want)) {
		t.Fatalf("after %d adds: Len %d, Dropped %d; want %d, %d",
			added, l.Len(), l.Dropped(), len(want), added-len(want))
	}
	if r, ok := l.Last(); !ok || !reflect.DeepEqual(r, want[len(want)-1]) {
		t.Fatalf("after %d adds: Last = %.300v, %v\nwant %.300v", added, r, ok, want[len(want)-1])
	}
	if !full {
		return
	}
	if got := l.Records(); !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("after %d adds: Records()[%d] differs", added, i)
			}
		}
		t.Fatalf("after %d adds: Records() has %d records, want %d", added, len(got), len(want))
	}
	var got, ref bytes.Buffer
	if err := l.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSONL(&ref, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("after %d adds: export differs from reference", added)
	}
}

// TestLogMatchesSliceModel checks Len, Dropped and Last after every
// add, and Records and WriteJSONL after every add at the small
// capacities; at DefaultCap, where a full compare costs a whole ring,
// it compares them when the ring fills, at its first drop and at the
// end. It also checks that the records Records returned at the first
// drop stay intact as the ring recycles their chunks.
func TestLogMatchesSliceModel(t *testing.T) {
	cases := []struct {
		capacity, adds, longEvery, manyEvery int
		seeds                                int64
	}{
		{1, 150, 20, 10, 2},
		{2, 150, 20, 10, 2},
		{7, 300, 20, 10, 2},
		{DefaultCap, DefaultCap + 500, 400, 200, 1},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= tc.seeds; seed++ {
			g := newRecordGen(seed, tc.longEvery, tc.manyEvery)
			clk := &fakeClock{}
			l := New(tc.capacity)
			l.SetClock(clk)
			var model []Record
			var caller reused
			var snap, snapWant []Record
			for i := 1; i <= tc.adds; i++ {
				r := g.next(uint64(i))
				clk.now = r.At
				caller.add(l, r)
				model = append(model, r)
				want := model[max(0, len(model)-tc.capacity):]
				full := tc.capacity < DefaultCap || i == tc.capacity || i == tc.capacity+1 || i == tc.adds
				checkLog(t, l, want, i, full)
				if i == tc.capacity+1 {
					snap, snapWant = l.Records(), append([]Record(nil), want...)
				}
			}
			if !reflect.DeepEqual(snap, snapWant) {
				t.Errorf("cap %d seed %d: records returned at the wrap changed as the ring recycled", tc.capacity, seed)
			}
		}
	}
}

// TestLogHoldsNoPointers checks that the ring's chunks are byte
// slices, so the garbage collector never scans the records.
func TestLogHoldsNoPointers(t *testing.T) {
	var l Log
	bytesType := reflect.TypeOf([]byte(nil))
	if typ := reflect.TypeOf(l.chunks).Elem(); typ != bytesType {
		t.Errorf("a chunk is a %v, want %v", typ, bytesType)
	}
	if typ := reflect.TypeOf(l.spare); typ != bytesType {
		t.Errorf("the spare chunk is a %v, want %v", typ, bytesType)
	}
}

// TestInternTableBounded adds 100,000 records over a fixed vocabulary
// of subsystems, actions and notes, passed both as literals and as
// fresh copies at new addresses, with unique subjects and candidate
// names: the intern table holds the vocabulary and nothing more.
func TestInternTableBounded(t *testing.T) {
	l := New(0)
	vocab := make(map[string]bool)
	for _, s := range [][]string{modelSubsystems, modelActions, modelNotes} {
		for _, v := range s {
			vocab[v] = true
		}
	}
	pick := func(s []string, i int) string {
		v := s[i%len(s)]
		if i%7 == 0 {
			v = strings.Clone(v)
		}
		return v
	}
	for i := 0; i < 100000; i++ {
		id := strconv.Itoa(i)
		l.Add(pick(modelSubsystems, i), pick(modelActions, i), "Sort-1/map-"+id, "tt-"+id, "reason",
			Candidate{Name: "attempt-" + id, Note: pick(modelNotes, i)},
			Candidate{Name: "attempt-" + id + "b", Note: pick(modelNotes, i+1)})
	}
	if l.syms.Len() != len(vocab) {
		t.Fatalf("intern table holds %d symbols after 100000 adds, want the %d of the vocabulary",
			l.syms.Len(), len(vocab))
	}
}

// encodedLen is the length of r's record in the log's layout, size
// prefix included, for intern ids below 64.
func encodedLen(r Record) int {
	uv := func(v int) int { return len(binary.AppendUvarint(nil, uint64(v))) }
	str := func(s string) int { return uv(len(s)) + len(s) }
	n := uv(int(r.At)) + 1 + 1 + str(r.Subject) + str(r.Decision) + str(r.Reason) + uv(len(r.Candidates))
	for _, c := range r.Candidates {
		n += str(c.Name) + 8 + 1
	}
	return uv(n) + n
}

// TestRetainedBytesBound wraps rings whose record sizes change phase
// by phase, from a few bytes to several chunks, and checks after every
// add that the ring's live bytes are exactly the encoded records it
// retains and that its chunks, spare included, hold at most those
// bytes plus two chunks.
func TestRetainedBytesBound(t *testing.T) {
	long := strings.Repeat("R", 3*chunkSize)
	for _, capacity := range []int{1, 7, 300, 2000} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		l := New(capacity)
		var sizes []int
		var live int
		for i := 0; i < capacity+3000; i++ {
			r := Record{Subsystem: "mapred", Action: "assign", Subject: "map-" + strconv.Itoa(i)}
			switch (i / 500) % 3 { // phases of small, mixed and large records
			case 1:
				r.Reason = long[:rng.Intn(2000)]
			case 2:
				r.Reason = long[:rng.Intn(len(long))]
			}
			for j, n := 0, rng.Intn(6); j < n; j++ {
				r.Candidates = append(r.Candidates, Candidate{Name: "tt-" + strconv.Itoa(j), Score: float64(j)})
			}
			l.Add(r.Subsystem, r.Action, r.Subject, r.Decision, r.Reason, r.Candidates...)
			sizes = append(sizes, encodedLen(r))
			live += sizes[len(sizes)-1]
			if len(sizes) > capacity {
				live -= sizes[0]
				sizes = sizes[1:]
			}
			if got := int(l.tail - l.head); got != live {
				t.Fatalf("cap %d, add %d: ring spans %d bytes, its records encode to %d", capacity, i, got, live)
			}
			if held := len(l.chunks)*chunkSize + cap(l.spare); held > live+2*chunkSize {
				t.Fatalf("cap %d, add %d: chunks hold %d bytes for %d live, over the bound of two chunks",
					capacity, i, held, live)
			}
		}
	}
}

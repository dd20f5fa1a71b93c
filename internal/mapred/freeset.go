package mapred

import (
	"math/bits"
	"slices"
)

// freeKey is a free tracker's place in schedule()'s walk: its cached
// pressure (0 for every tracker when the walk is capacity-blind) and
// its registration index, which breaks ties.
type freeKey struct {
	pressure float64
	idx      int32
}

// less orders keys by pressure, then registration index.
func (k freeKey) less(o freeKey) bool {
	if k.pressure != o.pressure {
		return k.pressure < o.pressure
	}
	return k.idx < o.idx
}

// freeSet is one free-slot set: the registration indexes of the trackers
// with a free slot of one task type, grouped by their cached pressure.
// The distinct pressures are few (a 10,000-PM fleet's set holds about
// three, most trackers tied at the largest), so the set is a block list
// of pressure levels, and re-keying a tracker touches only its old and
// new levels: in the common case, two bits.
//
// A level's members live in the cheaper of two containers: a level of
// one keeps its id inline, a small level a sorted []int32, a level of
// more than size/32 members (where the two cost the same) a bitset over
// every registration index; it goes back to ids below size/64, so a
// level hovering at the switch does not flip each time. Every tracker at
// its own pressure is one 16-byte level entry each and no container.
//
// Containers keep the capacity they grew to when their level shrinks,
// switches or dissolves, so churn reuses it instead of allocating. A
// container changed while the set holds more than retainBytes is cut to
// what its level needs, so the set stays O(n) whatever the pressures
// and their history: what containers kept beyond their need was all
// counted, at the last change that kept it, within retainBytes.
//
// The zero freeSet is empty and ready to use.
type freeSet struct {
	// levels is in pressure order. It is searched and changed only
	// through level, insertAt and removeAt, so it needs no comparator.
	levels blockList[freeLevel]
	// conts holds the containers of levels with two or more members;
	// spare lists the unused ones.
	conts []levelSet
	spare []int32
	// held is the capacity of every container, in bytes.
	held int
	// size bounds every id inserted so far (trackers are numbered
	// densely in registration order); it sizes the bitsets.
	size int
	n    int // members
}

// freeLevel is one pressure level: its members are the free trackers
// whose key has this pressure. With n == 1, c is the member's id;
// otherwise it indexes the level's container in conts.
type freeLevel struct {
	pressure float64
	n        int32
	c        int32
}

// levelSet holds the members of a level with at least two: the sorted
// ids, or, when big, the set bits of bits. The slice not in use is
// kept, empty (bits all zero), for the next switch.
type levelSet struct {
	ids  []int32
	bits []uint64
	big  bool
}

// bytes is the capacity a container holds.
func (cs *levelSet) bytes() int { return 4*cap(cs.ids) + 8*cap(cs.bits) }

// retainBytes is how much container capacity a set may hold before it
// gives back what its levels do not need: 16 bytes per tracker, plus
// room for a few small levels on any fleet.
func (s *freeSet) retainBytes() int { return 16*s.size + 4096 }

// level returns the position of the first level whose pressure is not
// below p, as block and index (len(blocks) when there is none), and
// whether its pressure is p.
func (s *freeSet) level(p float64) (bi, i int, ok bool) {
	blocks := s.levels.blocks
	lo, hi := 0, len(blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b := blocks[m]; b[len(b)-1].pressure < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(blocks) {
		return lo, 0, false
	}
	b := blocks[lo]
	l, h := 0, len(b)
	for l < h {
		m := int(uint(l+h) >> 1)
		if b[m].pressure < p {
			l = m + 1
		} else {
			h = m
		}
	}
	return lo, l, b[l].pressure == p
}

// insert adds the tracker with key k, which must not be a member.
func (s *freeSet) insert(k freeKey) {
	s.n++
	s.size = max(s.size, int(k.idx)+1)
	bi, i, ok := s.level(k.pressure)
	if !ok {
		if bi == len(s.levels.blocks) && bi > 0 {
			bi--
			i = len(s.levels.blocks[bi])
		}
		s.levels.insertAt(bi, i, freeLevel{pressure: k.pressure, n: 1, c: k.idx})
		return
	}
	lv := &s.levels.blocks[bi][i]
	only := int32(-1)
	if lv.n == 1 {
		only, lv.c = lv.c, s.newCont()
	}
	cs := &s.conts[lv.c]
	h := cs.bytes()
	if only >= 0 {
		cs.ids = append(cs.ids, only)
	}
	if cs.big {
		w := int(k.idx >> 6)
		if w >= len(cs.bits) {
			cs.bits = append(cs.bits, make([]uint64, w+1-len(cs.bits))...)
		}
		cs.bits[w] |= 1 << (k.idx & 63)
	} else {
		j, _ := slices.BinarySearch(cs.ids, k.idx)
		cs.ids = slices.Insert(cs.ids, j, k.idx)
	}
	lv.n++
	s.reshape(cs, int(lv.n), h)
}

// remove deletes the tracker with key k, which must be a member under
// exactly this key.
func (s *freeSet) remove(k freeKey) {
	bi, i, ok := s.level(k.pressure)
	if !ok {
		return
	}
	s.n--
	lv := &s.levels.blocks[bi][i]
	if lv.n == 1 {
		s.levels.removeAt(bi, i)
		return
	}
	lv.n--
	cs := &s.conts[lv.c]
	if cs.big {
		cs.bits[k.idx>>6] &^= 1 << (k.idx & 63)
	} else if j, found := slices.BinarySearch(cs.ids, k.idx); found {
		cs.ids = slices.Delete(cs.ids, j, j+1)
	}
	if lv.n == 1 {
		c := lv.c
		lv.c = cs.next(-1)
		s.freeCont(c)
		return
	}
	s.reshape(cs, int(lv.n), cs.bytes())
}

// reshape moves a level of n members into the container its size calls
// for, trims the container while the set holds more than it may, and
// counts its capacity, h bytes before the change that called it.
func (s *freeSet) reshape(cs *levelSet, n, h int) {
	switch {
	case !cs.big && n > s.size/32:
		words := (s.size + 63) / 64
		if cap(cs.bits) < words {
			cs.bits = make([]uint64, words)
		}
		cs.bits = cs.bits[:words]
		for _, id := range cs.ids {
			cs.bits[id>>6] |= 1 << (id & 63)
		}
		cs.ids = cs.ids[:0]
		cs.big = true
	case cs.big && n < s.size/64:
		for w, x := range cs.bits {
			for ; x != 0; x &= x - 1 {
				cs.ids = append(cs.ids, int32(w<<6+bits.TrailingZeros64(x)))
			}
		}
		clear(cs.bits)
		cs.big = false
	}
	if s.held+cs.bytes()-h > s.retainBytes() {
		// Keep only what the members need, with room to double.
		if cs.big {
			cs.ids = nil
		} else if cs.bits = nil; cap(cs.ids) > 2*n {
			cs.ids = append(make([]int32, 0, 2*n), cs.ids...)
		}
	}
	s.held += cs.bytes() - h
}

// first returns the least member's id, or -1 when the set is empty.
func (s *freeSet) first() int32 {
	if len(s.levels.blocks) == 0 {
		return -1
	}
	return s.least(&s.levels.blocks[0][0])
}

// after returns the id of the first member whose key orders strictly
// after k, or -1. k need not be a member, so a walk can continue past a
// tracker a launch just removed.
func (s *freeSet) after(k freeKey) int32 {
	bi, i, ok := s.level(k.pressure)
	if bi == len(s.levels.blocks) {
		return -1
	}
	lv := &s.levels.blocks[bi][i]
	if ok {
		if id := s.next(lv, k.idx); id >= 0 {
			return id
		}
		if i++; i == len(s.levels.blocks[bi]) {
			if bi++; bi == len(s.levels.blocks) {
				return -1
			}
			i = 0
		}
		lv = &s.levels.blocks[bi][i]
	}
	return s.least(lv)
}

// least returns a level's smallest member.
func (s *freeSet) least(lv *freeLevel) int32 {
	if lv.n == 1 {
		return lv.c
	}
	return s.next(lv, -1)
}

// next returns a level's smallest member above id, or -1.
func (s *freeSet) next(lv *freeLevel, id int32) int32 {
	if lv.n == 1 {
		if lv.c > id {
			return lv.c
		}
		return -1
	}
	return s.conts[lv.c].next(id)
}

// next returns the smallest member above id, or -1.
func (cs *levelSet) next(id int32) int32 {
	if !cs.big {
		j, found := slices.BinarySearch(cs.ids, id)
		if found {
			j++
		}
		if j == len(cs.ids) {
			return -1
		}
		return cs.ids[j]
	}
	from := int(id) + 1
	w := from >> 6
	if w >= len(cs.bits) {
		return -1
	}
	if x := cs.bits[w] >> (from & 63); x != 0 {
		return int32(from + bits.TrailingZeros64(x))
	}
	for w++; w < len(cs.bits); w++ {
		if x := cs.bits[w]; x != 0 {
			return int32(w<<6 + bits.TrailingZeros64(x))
		}
	}
	return -1
}

// newCont returns the index of an empty container, reusing a spare one.
func (s *freeSet) newCont() int32 {
	if n := len(s.spare); n > 0 {
		c := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return c
	}
	s.conts = append(s.conts, levelSet{})
	return int32(len(s.conts) - 1)
}

// freeCont empties a dissolved level's container and keeps it, with its
// capacity, for reuse.
func (s *freeSet) freeCont(c int32) {
	cs := &s.conts[c]
	cs.ids = cs.ids[:0]
	clear(cs.bits)
	cs.big = false
	s.spare = append(s.spare, c)
}

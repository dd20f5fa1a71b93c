package jsonenc

import (
	"strings"
	"unsafe"
)

// Symbol is one interned string and its JSON encoding, which exporters
// copy instead of escaping the string again.
type Symbol struct {
	Str  string
	JSON string
}

// Symbols is an intern table: it numbers strings in first-seen order
// and keeps each one's JSON encoding. A store that records the same
// few strings over and over (trace tracks, categories and arg keys;
// audit subsystems, actions and notes) keeps a small id in place of
// each. The zero value is an empty table.
type Symbols struct {
	// ids maps each string back to its id, and syms[id] is the string
	// with that id. Both hold the table's own copies of the strings,
	// so callers may intern views of buffers they reuse.
	ids  map[string]uint32
	syms []Symbol
	// hints caches ids by string address: callers pass the same few
	// literals and stored names on every call, and a hit, confirmed by
	// comparing the strings, costs less than the map lookup.
	hints [hintSlots]hint
}

// hint is a cached intern result: the address of the bytes of a
// string that had the id. An address alone proves nothing (the bytes
// may since have been freed or rewritten), so Intern compares the
// strings before trusting a hit.
type hint struct {
	addr uintptr
	id   uint32
}

// hintBits sets the size of the hint cache. With 128 slots, 97% of the
// trace lookups of perfbench's faults workload (818 tracks) hit.
const (
	hintBits  = 7
	hintSlots = 1 << hintBits
)

// Intern returns the id of s, adding a copy of s and its JSON encoding
// on its first sight.
func (t *Symbols) Intern(s string) uint32 {
	addr := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	h := &t.hints[(addr*0x9e3779b97f4a7c15)>>(64-hintBits)]
	if addr != 0 && h.addr == addr && t.syms[h.id].Str == s {
		return h.id
	}
	id, ok := t.ids[s]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[string]uint32)
		}
		id = uint32(len(t.syms))
		s := strings.Clone(s)
		t.ids[s] = id
		t.syms = append(t.syms, Symbol{Str: s, JSON: string(AppendString(nil, s))})
	}
	h.addr, h.id = addr, id
	return id
}

// At returns the symbol with the given id. It stays valid, and its
// strings never change, for the life of the table.
func (t *Symbols) At(id uint32) *Symbol { return &t.syms[id] }

// Len returns the number of interned strings.
func (t *Symbols) Len() int { return len(t.syms) }

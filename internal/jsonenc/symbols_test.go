package jsonenc

import (
	"encoding/json"
	"strings"
	"testing"
	"unsafe"
)

// TestSymbolsInternsOnce interns every string case many times, as
// literals, as fresh copies and as views of one reused buffer whose
// bytes change between calls, and checks that each string keeps the id
// of its first sight, that its stored JSON is encoding/json's and that
// the table holds each string once.
func TestSymbolsInternsOnce(t *testing.T) {
	var tab Symbols
	var buf []byte
	view := func(s string) string {
		buf = append(buf[:0], s...)
		return unsafe.String(unsafe.SliceData(buf), len(buf))
	}
	for round := 0; round < 3; round++ {
		for i, s := range stringCases {
			for _, in := range []string{s, strings.Clone(s), view(s)} {
				if id := tab.Intern(in); id != uint32(i) {
					t.Fatalf("round %d: %q has id %d, want %d", round, s, id, i)
				}
			}
		}
	}
	if tab.Len() != len(stringCases) || len(tab.ids) != len(stringCases) {
		t.Fatalf("table holds %d strings (%d ids), want %d", tab.Len(), len(tab.ids), len(stringCases))
	}
	for i, s := range stringCases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if sym := tab.At(uint32(i)); sym.Str != s || sym.JSON != string(want) {
			t.Errorf("symbol %d = %q, %s; want %q, %s", i, sym.Str, sym.JSON, s, want)
		}
	}
}

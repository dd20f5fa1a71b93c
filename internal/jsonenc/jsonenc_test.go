package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// stringCases covers every escaping rule: HTML characters, each control
// byte form, DEL, invalid and truncated UTF-8, U+2028/U+2029 and valid
// multi-byte runes.
var stringCases = []string{
	"",
	"plain ascii text",
	`quote " and backslash \ and slash /`,
	"<script>alert('x')</script> & more",
	"\b\f\n\r\t",
	"\x00\x01\x07\x0b\x0e\x1b\x1f\x7f",
	"bad utf8: \xff \xfe\xfd end",
	"truncated rune \xe2\x82",
	"lone continuation \x80 byte",
	"line\u2028separator and paragraph\u2029separator",
	"h\u00e9llo w\u00f6rld \u65e5\u672c \U0001F600",
	"\ufffd literal replacement char",
	"mixed <\x00\xc3\x28\u2029>",
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range stringCases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	// Every single byte value on its own.
	for b := 0; b < 256; b++ {
		s := string([]byte{'a', byte(b), 'z'})
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("byte %#x: got %s, want %s", b, got, want)
		}
	}
}

// floatCases covers both formats, the cut-offs on either side of them,
// signed zero, subnormals, negative exponents and the extremes.
var floatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 123.456, -987654.321,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-10, 2.5e-300, 5e-324,
	math.SmallestNonzeroFloat64, 1e20, 9.99999e20, 1e21, -1e21, 1.23e45,
	math.MaxFloat64, -math.MaxFloat64, 4.2e-5, 1e15, 123456789012345680000,
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range floatCases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
}

func TestAppendFloatRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, err := AppendFloat([]byte("x"), f)
		if err == nil {
			t.Errorf("AppendFloat(%v) returned no error", f)
			continue
		}
		if string(got) != "x" {
			t.Errorf("AppendFloat(%v) wrote %q before failing", f, got)
		}
		_, jerr := json.Marshal(f)
		if jerr == nil || err.Error() != jerr.Error() {
			t.Errorf("AppendFloat(%v) error %q, encoding/json says %v", f, err, jerr)
		}
	}
}

func TestAppendKeepsPrefix(t *testing.T) {
	b := AppendString([]byte(`{"k":`), "v")
	b, _ = AppendFloat(append(b, ','), 2.5)
	if string(b) != `{"k":"v",2.5` {
		t.Fatalf("got %s", b)
	}
}

func FuzzAppendString(f *testing.F) {
	for _, s := range stringCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
	})
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatCases {
		f.Add(v)
	}
	f.Add(math.NaN())
	f.Add(math.Inf(-1))
	f.Fuzz(func(t *testing.T, v float64) {
		want, jerr := json.Marshal(v)
		got, err := AppendFloat(nil, v)
		if (err != nil) != (jerr != nil) {
			t.Fatalf("AppendFloat(%v) error %v, encoding/json error %v", v, err, jerr)
		}
		if err == nil && string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", v, got, want)
		}
	})
}

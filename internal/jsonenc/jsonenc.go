// Package jsonenc holds append-style JSON value encoders that produce
// exactly the bytes encoding/json would for the same value. The trace
// and audit exporters write their fixed-schema records with them, so
// exporting needs no reflection, no intermediate maps and no per-value
// allocation, while every export stays byte-identical to the
// encoding/json output it replaced. Symbols is the intern table the
// trace and audit stores share, holding each interned string's
// encoding. Artifact is the one layout every JSON report file uses.
package jsonenc

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safe[b] reports whether the ASCII byte b is written as is inside a
// JSON string: printable, and neither a quote, a backslash nor one of
// the HTML characters <, > and &.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := byte(0x20); b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// Artifact renders v as a report file: encoding/json's output indented
// by two spaces, with a trailing newline.
func Artifact(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// AppendString appends s as a quoted JSON string, escaped as
// encoding/json escapes it by default: '"' and '\\' get a backslash;
// \b, \f, \n, \r and \t use their short forms; other control bytes and
// the HTML characters <, > and & become \u00XX; each byte of invalid
// UTF-8 becomes \ufffd; and U+2028 and U+2029 are escaped.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json encodes a float64: the
// shortest round-tripping decimal, in 'f' form unless the magnitude is
// below 1e-6 or at least 1e21, where it switches to 'e' form with a
// two-digit negative exponent trimmed to one ("1e-07" becomes "1e-7").
// NaN and ±Inf return dst unchanged and the error encoding/json gives.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

package atomicio

import (
	"encoding/json"
	"math"
	"strconv"
)

// JSON value appenders: the reflection-free writers that render a
// journal line or an export byte for byte as encoding/json would. They
// cover the two value kinds whose encoding is not a plain strconv call;
// integers and booleans need nothing beyond strconv.

// AppendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest round-trip digits, in exponent form only below 1e-6 or
// from 1e21 up, with a two-digit negative exponent shortened (e-07 to
// e-7). encoding/json refuses NaN and ±Inf; callers must refuse them
// first.
func AppendJSONFloat(dst []byte, f float64) []byte {
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
	return dst
}

// AppendJSONString appends s as encoding/json writes a string, with its
// default HTML-safe escaping. Printable ASCII other than '"', '\\' and
// HTML's '<', '>' and '&' needs no escape, so such a string — every
// system, dataset and outcome name and almost every engine message — is
// copied between quotes. Any other string goes through json.Marshal,
// which applies the full escaping and replaces invalid UTF-8.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Package jsonfloat formats float64 values the way encoding/json does. It is
// a leaf so that both hand-written encoders — internal/hotjson's wire codec
// and internal/obs's request log line — share the one rule.
package jsonfloat

import (
	"fmt"
	"math"
	"strconv"
)

// Append appends f exactly as encoding/json does: ES6 number-to-string
// conversion ('f' format, switching to 'e' outside [1e-6, 1e21) with the
// zero-padded exponent trimmed). Inf and NaN are an error, as in
// json.Marshal.
func Append(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("jsonfloat: unsupported float value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

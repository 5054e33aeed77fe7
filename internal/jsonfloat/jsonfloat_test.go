package jsonfloat

import (
	"encoding/json"
	"math"
	"testing"
)

// TestAppendMatchesEncodingJSON walks the format's boundaries; the fuzz
// target over raw bit patterns is internal/hotjson's FuzzFloatFormat.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 4.2e-5, 1e-6, 9.999999e-7, 8.94e-7, 1e-9, 6.123e-9,
		1e20, 1e21, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2,
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Append([]byte("x"), v)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("Append(%v) = %q, %v; encoding/json prints %s", v, got, err, want)
		}
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got, err := Append([]byte("x"), v); err == nil || string(got) != "x" {
			t.Errorf("Append(%v) = %q, %v; want an error and nothing appended", v, got, err)
		}
	}
}

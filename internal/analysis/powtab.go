package analysis

// powTabBits sizes the squares table: exponents up to 2^powTabBits - 1 are
// answered from the table, which covers every r the optimizer probes (its
// search cap is 1<<13) with room for the +1 offsets in the PoCD formulas;
// anything larger falls back to powInt.
const powTabBits = 14

// powTab caches x^(2^i) for i in [0, powTabBits). powInt computes these same
// squarings on every call before selecting the set-bit factors; the table
// computes them once per Reset, so a probe costs only popcount(n) multiplies.
//
// pow is bit-identical to powInt by construction: powInt's running result is
// the product of exactly these square values, multiplied in LSB-first bit
// order starting from 1.0, and floating-point multiplication by the literal
// 1.0 is exact — so replaying the same factors in the same order from the
// table reproduces every intermediate rounding.
type powTab struct {
	t [powTabBits]float64
}

// init fills the table for base x.
func (p *powTab) init(x float64) {
	p.t[0] = x
	for i := 1; i < powTabBits; i++ {
		p.t[i] = p.t[i-1] * p.t[i-1]
	}
}

// pow returns the base raised to n, bit-identical to powInt(base, n).
func (p *powTab) pow(n int) float64 {
	if n < 0 || n >= 1<<powTabBits {
		return powInt(p.t[0], n)
	}
	result := 1.0
	for i := 0; n > 0; i++ {
		if n&1 == 1 {
			result *= p.t[i]
		}
		n >>= 1
	}
	return result
}

// powInt computes x^n for integer n >= 0 by repeated squaring; it avoids the
// accuracy loss of math.Pow for exact small integer exponents. It is pow's
// fallback past the table and the reference the table is pinned against.
func powInt(x float64, n int) float64 {
	if n < 0 {
		return 1 / powInt(x, -n)
	}
	result := 1.0
	for n > 0 {
		if n&1 == 1 {
			result *= x
		}
		x *= x
		n >>= 1
	}
	return result
}

package analysis

import "math"

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

// powBase is a base x whose powers x^y are taken for many y, each bit for
// bit what math.Pow(x, y) returns. It replays the general branch of
// math.Pow (the portable one every port but s390x runs): the fraction's
// factor Exp(yf*Log(x)), then the squarings of Frexp(x) over the bits of the
// integer part, then one Ldexp. Log(x) and Frexp(x) depend on x alone, so
// they are taken once, at init, instead of once per power.
//
// A base the replica does not cover (x <= 0, x = 1, +Inf, NaN) keeps x1 = 0
// and every power is math.Pow's, as are the exponents math.Pow answers
// before its general branch (y <= 0, y = 1/2, y = 1, +Inf, NaN) and those
// at or past 2^63. So is the zero powBase with x set: the kernel's reference
// forms use that to take every power from math.Pow.
type powBase struct {
	x   float64
	lnx float64 // math.Log(x)
	x1  float64 // Frexp(x)'s fraction, in [1/2, 1); 0: every power is math.Pow's
	xe  int     // Frexp(x)'s exponent
}

// init binds the base x.
func (b *powBase) init(x float64) {
	*b = powBase{x: x}
	if x > 0 && x != 1 && x <= math.MaxFloat64 {
		b.lnx = math.Log(x)
		b.x1, b.xe = math.Frexp(x)
	}
}

// pow returns x^y, bit-identical to math.Pow(x, y). Past the special cases
// every statement is math.Pow's, in its order, so the roundings are its.
func (b *powBase) pow(y float64) float64 {
	if b.x1 == 0 || !(y > 0 && y < 1<<63) || y == 0.5 || y == 1 {
		return math.Pow(b.x, y)
	}
	yi, yf := math.Modf(y)
	a1 := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * b.lnx)
	}
	// Multiply in the squarings of x1*2^xe picked by the bits of yi,
	// keeping the powers of two apart in ae.
	x1, xe, ae := b.x1, b.xe, 0
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// xe is about to overflow the shift below; the result is
			// 0 or Inf, which Ldexp produces from ae.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return math.Ldexp(a1, ae)
}

// powN returns x^n, bit-identical to math.Pow(x, float64(n)). For an
// integer exponent math.Pow's general branch is its squaring loop alone: it
// multiplies 1.0 by the successive squarings of x picked by the bits of n,
// from the lowest, with each factor's power of two kept apart. powInt makes
// the same products in the same order on x itself. Scaling by a power of two
// commutes with rounding while a value stays normal, and every product and
// square powInt uses lies between 1 and its result, so a normal result
// means powInt rounded exactly as math.Pow did; otherwise, and for x <= 0,
// n < 2 and n >= 2^53 (where float64(n) need not be n), the answer is
// math.Pow's.
func powN(x float64, n int) float64 {
	if x > 0 && n >= 2 && n < 1<<53 {
		if r := powInt(x, n); inFloatRange(r) {
			return r
		}
	}
	return math.Pow(x, float64(n))
}

package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"chronos/internal/pareto"
)

// propParams folds arbitrary quick-check inputs into a valid parameter
// point in the paper's regime.
func propParams(nRaw, dRaw, bRaw, tRaw uint32) Params {
	n := int(nRaw%200) + 1
	beta := 1.05 + float64(bRaw%95)/100 // (1.05, 2.0)
	tmin := 5 + float64(tRaw%46)        // [5, 50]
	// Deadline between 1.2x and 6x tmin.
	d := tmin * (1.2 + float64(dRaw%48)/10)
	return Params{
		N:        n,
		Deadline: d,
		Task:     pareto.Dist{TMin: tmin, Beta: beta},
		TauEst:   0.25 * d,
		TauKill:  0.5 * d,
	}
}

// TestPropertyPoCDBounds: every strategy's PoCD stays in [0,1] and is
// non-decreasing in r across random parameter points.
func TestPropertyPoCDBounds(t *testing.T) {
	f := func(nRaw, dRaw, bRaw, tRaw uint32, rRaw uint8) bool {
		p := propParams(nRaw, dRaw, bRaw, tRaw)
		if p.Validate() != nil {
			return true // out-of-regime fold, skip
		}
		r := int(rRaw % 10)
		for _, s := range Strategies() {
			m := NewModel(s, p)
			a, b := m.PoCD(r), m.PoCD(r+1)
			if a < 0 || a > 1 || math.IsNaN(a) {
				return false
			}
			if b < a-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTheorem7: Clone and Resume dominate Restart at equal r on
// random parameter points.
func TestPropertyTheorem7(t *testing.T) {
	f := func(nRaw, dRaw, bRaw, tRaw uint32, rRaw uint8) bool {
		p := propParams(nRaw, dRaw, bRaw, tRaw)
		if p.Validate() != nil {
			return true
		}
		r := int(rRaw%6) + 1
		clone, restart, resume := pocdAtR(p, r)
		return clone >= restart && resume >= restart
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMachineTimePositive: expected machine time is positive and
// finite wherever PoCD is defined.
func TestPropertyMachineTimePositive(t *testing.T) {
	f := func(nRaw, dRaw, bRaw, tRaw uint32, rRaw uint8) bool {
		p := propParams(nRaw, dRaw, bRaw, tRaw)
		if p.Validate() != nil {
			return true
		}
		r := int(rRaw % 8)
		for _, s := range Strategies() {
			mt := NewModel(s, p).MachineTime(r)
			if mt <= 0 || math.IsNaN(mt) || math.IsInf(mt, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

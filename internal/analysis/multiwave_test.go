package analysis

import (
	"math"
	"testing"

	"chronos/internal/pareto"
)

func waveParams() Params {
	return Params{
		N:        40,
		Deadline: 400,
		Task:     pareto.MustNew(10, 1.5),
		TauEst:   60,
		TauKill:  120,
	}
}

func TestWaveModelValidation(t *testing.T) {
	inner := NewModel(StrategyClone, waveParams())
	if _, err := NewWaveModel(inner, 0); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := NewWaveModel(inner, 8); err != nil {
		t.Errorf("valid wave model rejected: %v", err)
	}
}

func TestWavesAtR(t *testing.T) {
	w, err := NewWaveModel(NewModel(StrategyClone, waveParams()), 40)
	if err != nil {
		t.Fatal(err)
	}
	// 40 tasks, 40 slots: r=0 is one wave; r=1 doubles attempts -> 2 waves.
	if got := w.WavesAtR(0); got != 1 {
		t.Errorf("WavesAtR(0) = %d, want 1", got)
	}
	if got := w.WavesAtR(1); got != 2 {
		t.Errorf("WavesAtR(1) = %d, want 2", got)
	}
	if got := w.WavesAtR(3); got != 4 {
		t.Errorf("WavesAtR(3) = %d, want 4", got)
	}
}

func TestSingleWaveMatchesInner(t *testing.T) {
	for _, s := range Strategies() {
		inner := NewModel(s, waveParams())
		w, err := NewWaveModel(inner, 1000) // ample slots: always one wave
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r <= 4; r++ {
			if got, want := w.PoCD(r), inner.PoCD(r); got != want {
				t.Errorf("%v r=%d: wave PoCD %v != inner %v", s, r, got, want)
			}
			if got, want := w.MachineTime(r), inner.MachineTime(r); got != want {
				t.Errorf("%v r=%d: wave cost %v != inner %v", s, r, got, want)
			}
		}
	}
}

func TestMultiWavePoCDBelowSingleWave(t *testing.T) {
	// Slicing the deadline across waves can only hurt the synchronized
	// approximation.
	for _, s := range Strategies() {
		inner := NewModel(s, waveParams())
		constrained, err := NewWaveModel(inner, 20) // half the tasks fit per wave
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r <= 3; r++ {
			if constrained.PoCD(r) > inner.PoCD(r)+1e-12 {
				t.Errorf("%v r=%d: constrained PoCD %v above unconstrained %v",
					s, r, constrained.PoCD(r), inner.PoCD(r))
			}
		}
	}
}

func TestMultiWaveDegenerateSlice(t *testing.T) {
	// With many waves the per-wave deadline drops below tmin: PoCD 0.
	p := waveParams()
	w, err := NewWaveModel(NewModel(StrategyClone, p), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.PoCD(0); got != 0 {
		t.Errorf("40-wave PoCD = %v, want 0 (slice below tmin)", got)
	}
	// Cost stays finite and positive.
	if mt := w.MachineTime(0); mt <= 0 || math.IsInf(mt, 0) {
		t.Errorf("degenerate wave MachineTime = %v", mt)
	}
}

func TestWaveModelInterface(t *testing.T) {
	w, err := NewWaveModel(NewModel(StrategyResume, waveParams()), 30)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "Speculative-Resume (multi-wave)" {
		t.Errorf("Name() = %q", w.Name())
	}
	if w.Params() != waveParams() {
		t.Error("Params() does not round-trip")
	}
	if g := w.Gamma(); math.IsNaN(g) {
		t.Errorf("Gamma() = %v", g)
	}
}

func TestWaveGammaConservative(t *testing.T) {
	inner := NewModel(StrategyClone, waveParams())
	w, err := NewWaveModel(inner, 20)
	if err != nil {
		t.Fatal(err)
	}
	if w.Gamma() < inner.Gamma() {
		t.Errorf("wave Gamma %v below inner %v (must be conservative)", w.Gamma(), inner.Gamma())
	}
}

func TestSlotsForWaves(t *testing.T) {
	// 40 tasks at r=1 (80 attempts): single wave needs 80 slots, two waves
	// need 40.
	if got := SlotsForWaves(40, 1, 1); got != 80 {
		t.Errorf("SlotsForWaves(40,1,1) = %d, want 80", got)
	}
	if got := SlotsForWaves(40, 1, 2); got != 40 {
		t.Errorf("SlotsForWaves(40,1,2) = %d, want 40", got)
	}
	if got := SlotsForWaves(40, 0, 3); got != 14 {
		t.Errorf("SlotsForWaves(40,0,3) = %d, want 14", got)
	}
	if got := SlotsForWaves(10, 0, 0); got != 10 {
		t.Errorf("SlotsForWaves with waves=0 clamps to 1: got %d", got)
	}
}

// TestWaveModelAgainstDES cross-checks the synchronized-wave PoCD bound
// against a slot-constrained discrete-event run: the DES (overlapping
// waves) must do at least as well as the synchronized approximation.
// The DES side lives in internal/speculate's tests; here we check the
// monotonicity that underpins the bound: more slots never hurt.
func TestWaveMoreSlotsNeverHurt(t *testing.T) {
	inner := NewModel(StrategyClone, waveParams())
	prev := -1.0
	for _, slots := range []int{10, 20, 40, 80, 160} {
		w, err := NewWaveModel(inner, slots)
		if err != nil {
			t.Fatal(err)
		}
		got := w.PoCD(1)
		if got < prev-1e-12 {
			t.Errorf("PoCD dropped from %v to %v when slots grew to %d", prev, got, slots)
		}
		prev = got
	}
}

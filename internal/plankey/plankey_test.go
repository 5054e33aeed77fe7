package plankey

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chronos"
)

func TestKeyQuantizesNoise(t *testing.T) {
	base := chronos.JobParams{Tasks: 20, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	econ := chronos.Econ{Theta: 1e-4, UnitPrice: 1}
	noisy := base
	noisy.Deadline += 1e-9 // sub-ppm measurement noise
	if Key("", base, econ) != Key("", noisy, econ) {
		t.Fatal("sub-ppm perturbation changed the key")
	}
	far := base
	far.Deadline = 101
	if Key("", base, econ) == Key("", far, econ) {
		t.Fatal("distinct deadlines share a key")
	}
}

func TestKeySeparatesStrategies(t *testing.T) {
	p := chronos.JobParams{Tasks: 5, Deadline: 50, TMin: 5, Beta: 2, TauEst: 10, TauKill: 20}
	e := chronos.Econ{Theta: 1e-4, UnitPrice: 1}
	if Key("", p, e) == Key(chronos.Clone.String(), p, e) {
		t.Fatal("best-of-three and pinned Clone share a key")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want chronos.Strategy
		best bool
		ok   bool
	}{
		{"", 0, true, true},
		{"best", 0, true, true},
		{" Best ", 0, true, true},
		{"clone", chronos.Clone, false, true},
		{"s-resume", chronos.SpeculativeResume, false, true},
		{"warp-drive", 0, false, false},
	}
	for _, c := range cases {
		got, best, ok := ParseStrategy(c.in)
		if got != c.want || best != c.best || ok != c.ok {
			t.Errorf("ParseStrategy(%q) = (%v, %v, %v), want (%v, %v, %v)", c.in, got, best, ok, c.want, c.best, c.ok)
		}
	}
}

// TestAppendKeyMatchesHistoricalFormat pins AppendKey to the fmt.Sprintf
// %.6g format Key used before the hot path stopped allocating. Persisted
// cache dumps and ring placement depend on the bytes never changing.
func TestAppendKeyMatchesHistoricalFormat(t *testing.T) {
	legacy := func(strategy string, p chronos.JobParams, e chronos.Econ) string {
		return fmt.Sprintf("%s|%d|%.6g|%.6g|%.6g|%.6g|%.6g|%.6g|%.6g|%.6g|%.6g",
			strategy, p.Tasks, p.Deadline, p.TMin, p.Beta, p.TauEst, p.TauKill,
			p.PhiEst, e.Theta, e.UnitPrice, e.RMin)
	}
	rng := rand.New(rand.NewSource(8))
	floats := []float64{0, -0.0 * 1, 1, -1, 0.1, 1e-9, 1e21, 123456.789,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		1.0 / 3.0, 6.62607e-34}
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	for i := 0; i < 5000; i++ {
		p := chronos.JobParams{
			Tasks: rng.Intn(1 << 20), Deadline: pick(), TMin: pick(), Beta: pick(),
			TauEst: pick(), TauKill: pick(), PhiEst: pick(),
		}
		e := chronos.Econ{Theta: pick(), UnitPrice: pick(), RMin: pick()}
		strategy := []string{"", "Clone", "Speculative-Resume"}[rng.Intn(3)]
		want := legacy(strategy, p, e)
		if got := Key(strategy, p, e); got != want {
			t.Fatalf("Key diverged from historical format:\nwant %q\ngot  %q (params %+v econ %+v)", want, got, p, e)
		}
		if got := string(AppendKey([]byte("prefix"), strategy, p, e)); got != "prefix"+want {
			t.Fatalf("AppendKey with prefix diverged: %q", got)
		}
	}
}

func TestAppendKeyZeroAlloc(t *testing.T) {
	p := chronos.JobParams{Tasks: 20, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	e := chronos.Econ{Theta: 1e-4, UnitPrice: 1}
	buf := make([]byte, 0, 256)
	if avg := testing.AllocsPerRun(200, func() {
		buf = AppendKey(buf[:0], "Clone", p, e)
	}); avg != 0 {
		t.Fatalf("AppendKey allocates %.1f times per op", avg)
	}
}

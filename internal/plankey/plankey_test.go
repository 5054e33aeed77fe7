package plankey

import (
	"math"
	"math/rand"
	"testing"

	"chronos"
)

// tuple is one key's inputs, its floats in key order.
type tuple struct {
	strategy string
	tasks    int
	f        [fields - 1]float64
}

func (t tuple) params() (chronos.JobParams, chronos.Econ) {
	return chronos.JobParams{Tasks: t.tasks, Deadline: t.f[0], TMin: t.f[1], Beta: t.f[2],
			TauEst: t.f[3], TauKill: t.f[4], PhiEst: t.f[5]},
		chronos.Econ{Theta: t.f[6], UnitPrice: t.f[7], RMin: t.f[8]}
}

func (t tuple) key() string {
	p, e := t.params()
	return Key(t.strategy, p, e)
}

// bitEqual is the contract's side of "iff": same strategy, same Tasks, and
// every float bit-identical.
func (t tuple) bitEqual(u tuple) bool {
	if t.strategy != u.strategy || t.tasks != u.tasks {
		return false
	}
	for i := range t.f {
		if math.Float64bits(t.f[i]) != math.Float64bits(u.f[i]) {
			return false
		}
	}
	return true
}

var strategies = []string{"", chronos.Clone.String(), chronos.SpeculativeRestart.String(), chronos.SpeculativeResume.String()}

func randomTuple(rng *rand.Rand) tuple {
	special := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-9, 100, 100.00004,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	t := tuple{strategy: strategies[rng.Intn(len(strategies))], tasks: rng.Intn(1 << 20)}
	for i := range t.f {
		switch rng.Intn(3) {
		case 0:
			t.f[i] = special[rng.Intn(len(special))]
		case 1:
			t.f[i] = rng.Float64() * 1000
		default:
			t.f[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return t
}

// TestKeyIsExactBits states the key contract: two requests share a key iff
// their strategy, Tasks and all nine floats are bit-identical. Every field's
// nearest neighbour (math.Nextafter either way, Tasks ± 1, another strategy)
// gets its own key, and so does -0 beside +0. AppendKey onto a non-empty
// buffer appends exactly Key's bytes, and every key of one strategy has the
// same length.
func TestKeyIsExactBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(a, b tuple) {
		t.Helper()
		if eq, want := a.key() == b.key(), a.bitEqual(b); eq != want {
			t.Fatalf("keys equal = %v, fields bit-equal = %v:\n%+v\n%+v", eq, want, a, b)
		}
	}
	for n := 0; n < 2000; n++ {
		a := randomTuple(rng)
		check(a, a)
		key := a.key()
		if len(key) != Len(a.strategy) {
			t.Fatalf("strategy %q: key length %d, want %d", a.strategy, len(key), Len(a.strategy))
		}
		p, e := a.params()
		if got := string(AppendKey([]byte("prefix"), a.strategy, p, e)); got != "prefix"+key {
			t.Fatalf("AppendKey onto a prefix = %q, want %q", got, "prefix"+key)
		}
		check(a, randomTuple(rng))
		for i := range a.f {
			for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
				b := a
				b.f[i] = math.Nextafter(a.f[i], dir)
				check(a, b)
			}
		}
		for _, d := range []int{-1, 1} {
			b := a
			b.tasks += d
			check(a, b)
		}
		for _, s := range strategies {
			b := a
			b.strategy = s
			check(a, b)
		}
	}
	for i := 0; i < fields-1; i++ {
		var pos, neg tuple
		neg.f[i] = math.Copysign(0, -1)
		if pos.key() == neg.key() {
			t.Errorf("float %d: +0 and -0 share a key", i)
		}
	}
	// Two bodies that once shared a six-digit cell.
	var d100, d100eps tuple
	d100.f[0], d100eps.f[0] = 100, 100.00004
	if d100.key() == d100eps.key() {
		t.Error("deadlines 100 and 100.00004 share a key")
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

func BenchmarkAppendKey(b *testing.B) {
	p := chronos.JobParams{Tasks: 20, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	e := chronos.Econ{Theta: 1e-4, UnitPrice: 1}
	buf := make([]byte, 0, Len(""))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendKey(buf[:0], "", p, e)
	}
}

package optimize

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/pareto"
	"chronos/internal/race"
)

// frontierCell is one (strategy, params, config) cell of the frontier tests.
type frontierCell struct {
	s   analysis.Strategy
	p   analysis.Params
	cfg Config
}

// frontierCells draws n random jobs and pairs each with all three
// strategies. RMin is binding as often as not. Every fourth job kills at
// the instant it detects, so a reactive strategy's machine time falls with
// r until PoCD saturates, and plans under a theta so small that the price
// term sinks below the last bit of the log term: its saturated points tie
// on utility, and the cheaper-on-tie rule decides between them.
func frontierCells(n int) []frontierCell {
	rng := rand.New(rand.NewSource(40))
	var cells []frontierCell
	for i := 0; i < n; i++ {
		tmin := 1 + rng.Float64()*49
		deadline := tmin * (1.05 + rng.Float64()*10)
		tauEst := rng.Float64() * 0.6 * deadline
		tauKill := tauEst + rng.Float64()*(deadline-tauEst)
		tied := i%4 == 3
		if tied {
			tauKill = tauEst
		}
		p := analysis.Params{
			N:        int(math.Exp(rng.Float64() * math.Log(2000))),
			Deadline: deadline,
			Task:     pareto.MustNew(tmin, 1.05+rng.Float64()*2),
			TauEst:   tauEst,
			TauKill:  tauKill,
			PhiEst:   rng.Float64() * 0.8,
		}
		cfg := Config{
			Theta:     math.Pow(10, -6+4*rng.Float64()),
			UnitPrice: 0.1 + rng.Float64()*5,
			RMin:      []float64{0, 0.5, 0.9, 0.99}[rng.Intn(4)],
		}
		if tied {
			cfg.Theta = 1e-30
		}
		for _, s := range analysis.Strategies() {
			cells = append(cells, frontierCell{s, p, cfg})
		}
	}
	return cells
}

// frontierJobCount sizes the sweeps: 300 jobs (900 cells) in `make
// goldens`, a tenth of that under -short and -race.
func frontierJobCount() int {
	if testing.Short() || race.Enabled {
		return 30
	}
	return 300
}

// scan is what SolveCapped computes for a cell before it reads the budget:
// the unconstrained optimum and the whole scan window.
func (c frontierCell) scan() (Result, []Point, error) {
	if err := validate(c.cfg, c.p); err != nil {
		return Result{}, nil, err
	}
	mm := acquireStrategy(c.s, c.p)
	defer mm.release()
	un, err := mm.solve(c.cfg)
	if err != nil {
		return Result{}, nil, err
	}
	return un, slices.Clone(mm.scanWindow(c.cfg, un.R)), nil
}

// query answers SolveCapped from the cell's Options un and opts, as a cached
// budget frontier does: a NaN budget is rejected, a budget that covers the
// optimum gets it, and any other the dearest option that fits.
func (c frontierCell) query(un Result, opts []Point, budget float64) (Result, error) {
	switch {
	case math.IsNaN(budget):
		return Result{}, ErrNaNBudget
	case budget >= un.MachineTime:
		return un, nil
	}
	k, err := Fit(opts, budget)
	if err != nil {
		return Result{}, err
	}
	return opts[k].result(un.Strategy), nil
}

// TestFrontierMatchesSolveCappedAtEveryBreakpoint asks the option search
// over a cell's Options and the uncached solver the same question at every
// budget where the answer can change — each window point's machine time and
// its two neighbouring floats — plus 0, +Inf and NaN, and requires the same
// result or the same error text.
func TestFrontierMatchesSolveCappedAtEveryBreakpoint(t *testing.T) {
	var dips, ties, budgets int
	for _, c := range frontierCells(frontierJobCount()) {
		un, opts, err := Options(c.s, c.p, c.cfg)
		_, window, scanErr := c.scan()
		if (err == nil) != (scanErr == nil) || err != nil && err.Error() != scanErr.Error() {
			t.Fatalf("%v %+v %+v: Options error %v, scan error %v", c.s, c.p, c.cfg, err, scanErr)
		}
		if err != nil {
			continue
		}
		bs := []float64{0, math.Inf(1), math.NaN()}
		dipped := false
		for i, p := range window {
			bs = append(bs, math.Nextafter(p.MachineTime, math.Inf(-1)), p.MachineTime, math.Nextafter(p.MachineTime, math.Inf(1)))
			dipped = dipped || i > 0 && p.MachineTime < window[i-1].MachineTime && !math.IsInf(p.Utility, -1)
			// A point a cheaper one matches in utility: only the
			// cheaper-on-tie rule drops it, and it could answer when it is
			// below the unconstrained optimum's machine time.
			for _, q := range window {
				if q.MachineTime < p.MachineTime && q.Utility == p.Utility && !math.IsInf(p.Utility, -1) && p.MachineTime < un.MachineTime {
					ties++
					break
				}
			}
		}
		if dipped {
			dips++
		}
		for _, b := range bs {
			budgets++
			got, gotErr := c.query(un, opts, b)
			want, wantErr := SolveCapped(c.s, c.p, c.cfg, b)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%v %+v %+v budget %v: option search error %v, SolveCapped error %v", c.s, c.p, c.cfg, b, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("%v %+v %+v budget %v: option search %+v, SolveCapped %+v", c.s, c.p, c.cfg, b, got, want)
			}
		}
	}
	// Without cells whose machine time dips and points a cheaper tie
	// displaces, the sweep would not exercise what the pruning must get right.
	if dips == 0 || ties == 0 {
		t.Fatalf("sweep too weak: %d cells whose machine time dips, %d tie-displaced points", dips, ties)
	}
	t.Logf("%d budgets, %d cells whose machine time dips, %d tie-displaced points", budgets, dips, ties)
}

// TestFrontierKeepsExactlyTheUndominatedPoints holds a cell's Options to an
// O(n²) reference: a window point stays unless within can never pick it —
// its utility is -Inf or NaN, or its machine time NaN — or another point
// costs no more machine time and has higher utility, or equal utility at
// lower machine time, or equal both at lower r; what stays comes by machine
// time. Fewer points would lose answers; more would keep memory the list
// does not need.
func TestFrontierKeepsExactlyTheUndominatedPoints(t *testing.T) {
	var windowed, kept int
	for _, c := range frontierCells(frontierJobCount()) {
		_, opts, err := Options(c.s, c.p, c.cfg)
		if err != nil {
			continue
		}
		_, window, _ := c.scan()
		pickable := func(p Point) bool { return p.Utility > math.Inf(-1) && !math.IsNaN(p.MachineTime) }
		var want []Point
		for _, p := range window {
			dominated := !pickable(p)
			for _, q := range window {
				if q.R != p.R && pickable(q) && q.MachineTime <= p.MachineTime && (q.Utility > p.Utility ||
					q.Utility == p.Utility && (q.MachineTime < p.MachineTime || q.R < p.R)) {
					dominated = true
				}
			}
			if !dominated {
				want = append(want, p)
			}
		}
		slices.SortFunc(want, func(a, b Point) int { return cmp.Compare(a.MachineTime, b.MachineTime) })
		if !slices.Equal(opts, want) {
			t.Fatalf("%v %+v %+v: kept %+v, undominated %+v", c.s, c.p, c.cfg, opts, want)
		}
		windowed += len(window)
		kept += len(opts)
	}
	if kept == 0 || kept >= windowed {
		t.Fatalf("kept %d of %d window points", kept, windowed)
	}
	t.Logf("kept %d of %d window points (%.1f%%)", kept, windowed, 100*float64(kept)/float64(windowed))
}

package optimize

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"chronos/internal/analysis"
)

// The paper's system model has M jobs sharing the datacenter (Section III).
// When the operator caps the total machine time available for speculation,
// the per-job optimizations couple through the budget:
//
//	maximize   sum_i log10(R_i(r_i) - Rmin_i)
//	subject to sum_i E_i[T](r_i) <= B,  r_i >= 0 integer.
//
// This is a multiple-choice knapsack: each job picks one r. A job's options
// are the undominated (machine time, utility) points of r = 0..batchRCap —
// the points some budget can pick, as a Frontier keeps them — and its window
// stops at the first feasible r whose next attempt gains at most 1e-9, so no
// budget is spent on a float epsilon of PoCD. A job starts at its cheapest
// feasible point when that costs no more than r = 0, so a machine-time dip
// is credited; otherwise it starts at r = 0.
//
// BatchSolve then walks the jobs' upper concave hulls. Each step takes the
// steepest affordable move over all jobs — the next vertex of that job's
// hull that still fits, the cheaper move on ties — and a job below RMin
// jumps to its cheapest feasible point at rate +Inf. Up to the first move
// that does not fit, this is the greedy that solves the knapsack's LP
// relaxation (Sinha and Zoltners, Operations Research 1979), whose optimum
// lies one fractional move further; the integer answer then keeps taking the
// shorter moves that still fit. That is exact where the LP optimum is
// integral and otherwise trails by the integrality gap: an early cheap move
// can crowd out a dear one the budget could have bought instead.
// TestBatchSolveMatchesBruteForce measures the gap on 3,000 random 2-3-job
// batches against brute force over r <= 10. No answer is -Inf where a finite
// allocation exists and none overspends; the p99 gap is 3e-5 log10 units,
// but 4 batches trail by more than 0.02, the worst by 0.50 (2-8 batches and
// a worst of 0.04-0.81 on six other seeds).

// BatchJob is one job of a shared-budget batch.
type BatchJob struct {
	// Model is the job's analytic strategy model.
	Model analysis.Model
	// RMin is the job's minimum acceptable PoCD, in [0, 1).
	RMin float64
}

// ErrBudgetTooSmall reports a budget below the cost of running every job
// with r = 0.
var ErrBudgetTooSmall = errors.New("optimize: budget below the r=0 cost of the batch")

// batchRCap bounds per-job allocations; PoCD saturates geometrically far
// below this.
const batchRCap = 64

// hull is one job's side of the walk: its options and its cached best move.
type hull struct {
	opts       []Point // undominated feasible points by machine time, from the job's point on
	to         int     // the best affordable move's target in opts; -1 for none
	rate, cost float64 // that move's utility gain per machine time, and its cost; 0, 0 for none
}

// BatchSolve allocates the machine-time budget across the batch and returns
// each job's chosen point, in job order.
func BatchSolve(jobs []BatchJob, budget float64) ([]Point, error) {
	if len(jobs) == 0 {
		return nil, errors.New("optimize: empty batch")
	}
	if math.IsNaN(budget) {
		return nil, ErrNaNBudget
	}
	hulls, at := make([]hull, len(jobs)), make([]Point, len(jobs))
	base, left := 0.0, budget
	for i, j := range jobs {
		if err := j.Model.Params().Validate(); err != nil {
			return nil, fmt.Errorf("optimize: batch job %d: %w", i, err)
		}
		if !(j.RMin >= 0 && j.RMin < 1) {
			return nil, fmt.Errorf("optimize: batch job %d: %w: got %v", i, ErrBadRMin, j.RMin)
		}
		h, p := newHull(j)
		base += p.MachineTime
		if len(h.opts) > 0 && h.opts[0].MachineTime <= p.MachineTime {
			p = h.opts[0] // the cheapest feasible point costs no more than r = 0
		}
		hulls[i], at[i] = h, p
		left -= p.MachineTime
		hulls[i].step(p, left) // left shrinks as jobs join; the walk re-steps a move that stops fitting
	}
	if base > budget {
		return nil, fmt.Errorf("%w: need %v, have %v", ErrBudgetTooSmall, base, budget)
	}
	for {
		best, rate, cost := -1, 0.0, 0.0 // a move gains, so its rate beats 0; no move is rate 0, cost 0
		for i := range hulls {
			h := &hulls[i]
			if h.cost > left { // left only shrinks, so a move that still fits is still the best
				h.step(at[i], left)
			}
			if h.rate > rate || h.rate == rate && h.cost < cost {
				best, rate, cost = i, h.rate, h.cost
			}
		}
		if best < 0 {
			return at, nil
		}
		h := &hulls[best]
		left -= h.cost
		at[best], h.opts = h.opts[h.to], h.opts[h.to:]
		h.step(at[best], left)
	}
}

// newHull evaluates job j's window and returns its hull and its r = 0
// point. Options of equal machine time keep r order. The memo goes back to
// the pool at once: the options are a fresh slice and the point a copy.
func newHull(j BatchJob) (hull, Point) {
	mm := acquire(j.Model)
	defer mm.release()
	cfg := Config{RMin: j.RMin} // theta 0: the utility is log10(PoCD - RMin)
	mm.window = mm.window[:0]
	for r := 0; r <= batchRCap; r++ {
		p := mm.pointAt(cfg, r)
		mm.window = append(mm.window, p)
		if r < batchRCap && !math.IsInf(p.Utility, -1) && mm.utility(cfg, r+1)-p.Utility <= 1e-9 {
			break
		}
	}
	h := hull{opts: mm.undominated(mm.window)}
	slices.SortStableFunc(h.opts, func(a, b Point) int { return cmp.Compare(a.MachineTime, b.MachineTime) })
	return h, mm.window[0]
}

// step caches the steepest move from at that costs at most left: the next
// vertex of the hull over the affordable options, the cheaper one on ties.
// Options cost more the further they lie, so the scan stops at the first
// that does not fit. From below RMin every option gains +Inf, so the move
// is the jump to the cheapest feasible point.
func (h *hull) step(at Point, left float64) {
	h.to, h.rate, h.cost = -1, 0, 0
	for k := range h.opts {
		cost := h.opts[k].MachineTime - at.MachineTime
		if cost > left {
			break
		}
		// An option of no more utility gains at most 0 (0/0 = NaN at equal
		// machine time, the job's own point included), which is never taken.
		if rate := (h.opts[k].Utility - at.Utility) / cost; rate > h.rate {
			h.to, h.rate, h.cost = k, rate, cost
		}
	}
}

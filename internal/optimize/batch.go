package optimize

import (
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
// are the undominated (machine time, utility) points of r = 0..batchRCap by
// machine time — the points some budget can pick, as in a cell's Options —
// and its window stops at the first feasible r whose next attempt gains at
// most 1e-9 and costs no less, so no budget is spent on a float epsilon of
// PoCD and no machine-time dip past saturation is missed. A job starts at its
// cheapest feasible point when that costs no more than r = 0, so a
// machine-time dip is credited; otherwise it starts at r = 0. The budget must
// cover the points the jobs start from, and nothing more.
//
// A Walk then walks the jobs' upper concave hulls. Each step takes the
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

// ErrBudgetTooSmall reports a budget below the cheapest answer it could buy:
// for a batch, the sum of the points its jobs start from (see above);
// for a capped solve, the cheapest feasible point. The "need" of the error
// that wraps it is that amount. The text still names the r = 0 cost: it is
// part of the /v1 error bodies the wire golden pins.
var ErrBudgetTooSmall = errors.New("optimize: budget below the r=0 cost of the batch")

// batchRCap bounds per-job allocations; PoCD saturates geometrically far
// below this.
const batchRCap = 64

// BatchSolve allocates the machine-time budget across the batch and returns
// each job's chosen point, in job order.
func BatchSolve(jobs []BatchJob, budget float64) ([]Point, error) {
	if len(jobs) == 0 {
		return nil, errors.New("optimize: empty batch")
	}
	if math.IsNaN(budget) {
		return nil, ErrNaNBudget
	}
	var w Walk
	for i, j := range jobs {
		if err := j.Model.Params().Validate(); err != nil {
			return nil, fmt.Errorf("optimize: batch job %d: %w", i, err)
		}
		if !(j.RMin >= 0 && j.RMin < 1) {
			return nil, fmt.Errorf("optimize: batch job %d: %w: got %v", i, ErrBadRMin, j.RMin)
		}
		w.Add(batchOptions(j), math.Inf(1))
	}
	if w.spent > budget {
		return nil, fmt.Errorf("%w: need %v, have %v", ErrBudgetTooSmall, w.spent, budget)
	}
	w.Spend(budget)
	at := make([]Point, len(jobs))
	for i, h := range w.hulls {
		at[i] = h.opts[h.at]
	}
	return at, nil
}

// batchOptions evaluates job j's window and returns its options: the
// undominated feasible points by machine time, after the r = 0 point when
// that costs less than all of them — a job that starts there sits below
// RMin at utility -Inf, so any move lifts it at rate +Inf. The memo goes back
// to the pool at once: the options are a fresh slice.
func batchOptions(j BatchJob) []Point {
	mm := acquire(j.Model)
	defer mm.release()
	cfg := Config{RMin: j.RMin} // theta 0: the utility is log10(PoCD - RMin)
	mm.window = mm.window[:0]
	for r := 0; r <= batchRCap; r++ {
		p := mm.pointAt(cfg, r)
		mm.window = append(mm.window, p)
		if r < batchRCap && !math.IsInf(p.Utility, -1) && mm.utility(cfg, r+1)-p.Utility <= 1e-9 && mm.MachineTime(r+1) >= p.MachineTime {
			break
		}
	}
	opts := mm.undominated(mm.window)
	if r0 := mm.window[0]; len(opts) == 0 || r0.MachineTime < opts[0].MachineTime {
		opts = slices.Insert(opts, 0, r0)
	}
	return opts
}

// Walk splits one machine-time budget across jobs that each take one of
// their options: the walk BatchSolve runs over each job's model window, and
// the admission path over each job's cached budget frontier. Add every job,
// then Spend. A Walk is reusable: Reset keeps its capacity, so a warm one
// allocates nothing.
type Walk struct {
	hulls []hull
	spent float64 // the machine time of every job's current option
}

// hull is one job's side of the walk: its options, where it stands, and its
// cached best move.
type hull struct {
	opts       []Point // by machine time, each dearer one of higher utility; the job stands at opts[at]
	at, to     int     // the job's option, and its best affordable move's target; to is -1 for none
	rate, cost float64 // that move's utility gain per machine time, and its cost; 0, 0 for none
}

// Reset empties the walk, keeping its capacity and no option lists.
func (w *Walk) Reset() {
	clear(w.hulls)
	w.hulls, w.spent = w.hulls[:0], 0
}

// Add enters a job at its first option if that fits in budget beside the
// current options of the jobs already entered, and reports whether it did.
// opts must be non-empty and sorted by machine time, each option of higher
// utility than every cheaper one (an option that gains nothing is never
// moved to).
func (w *Walk) Add(opts []Point, budget float64) bool {
	if w.spent+opts[0].MachineTime > budget {
		return false
	}
	w.hulls = append(w.hulls, hull{opts: opts})
	w.spent += opts[0].MachineTime
	return true
}

// Index returns the option job i stands at, in the order the jobs were added.
func (w *Walk) Index(i int) int { return w.hulls[i].at }

// Spend moves the jobs up their hulls while an affordable move gains
// utility, keeping the machine time of their options within budget.
func (w *Walk) Spend(budget float64) {
	for i := range w.hulls {
		w.step(&w.hulls[i], budget)
	}
	for {
		best, rate, cost := -1, 0.0, 0.0 // a move gains, so its rate beats 0; no move is rate 0, cost 0
		for i := range w.hulls {
			h := &w.hulls[i]
			if h.to >= 0 && !w.fits(h, h.to, budget) { // what is left only shrinks, so a move that still fits is still the best
				w.step(h, budget)
			}
			if h.rate > rate || h.rate == rate && h.cost < cost {
				best, rate, cost = i, h.rate, h.cost
			}
		}
		if best < 0 {
			return
		}
		h := &w.hulls[best]
		w.spent = w.spent - h.opts[h.at].MachineTime + h.opts[h.to].MachineTime
		h.at = h.to
		w.step(h, budget)
	}
}

// fits reports whether h's option k fits in budget beside the other jobs'
// current options. It subtracts h's own option before it adds k's, so a
// lone job's test is exactly opts[k].MachineTime <= budget.
func (w *Walk) fits(h *hull, k int, budget float64) bool {
	return w.spent-h.opts[h.at].MachineTime+h.opts[k].MachineTime <= budget
}

// step caches h's steepest move that fits in budget: the next vertex of the
// hull over the affordable options, the cheaper one on ties. Options cost
// more the further they lie, so the scan stops at the first that does not
// fit. From below RMin every option gains +Inf, so the move is the jump to
// the cheapest feasible point.
func (w *Walk) step(h *hull, budget float64) {
	h.to, h.rate, h.cost = -1, 0, 0
	from := &h.opts[h.at]
	for k := h.at + 1; k < len(h.opts) && w.fits(h, k, budget); k++ {
		cost := h.opts[k].MachineTime - from.MachineTime
		if rate := (h.opts[k].Utility - from.Utility) / cost; rate > h.rate {
			h.to, h.rate, h.cost = k, rate, cost
		}
	}
}

package optimize

import (
	"errors"
	"fmt"
	"math"

	"chronos/internal/analysis"
)

// The paper's system model has M jobs sharing the datacenter (Section III).
// When the operator caps the total machine time available for speculation,
// the per-job optimizations couple through the budget:
//
//	maximize   sum_i log10(R_i(r_i) - Rmin_i)
//	subject to sum_i E_i[T](r_i) <= B,  r_i >= 0 integer.
//
// BatchSolve performs greedy marginal-gain allocation: starting from
// r_i = 0, repeatedly grant one more attempt to the job with the highest
// utility gain per unit of additional machine time. On the concave region
// (r_i > Gamma_i) the marginal gains are decreasing, so the greedy choice is
// the classic near-optimal allocation for separable concave maximization
// under a knapsack constraint; below the concavity threshold the gains can
// briefly increase, so the greedy result is validated against single-step
// lookahead. Exactness on concave instances is property-tested against
// brute force.

// BatchJob is one job of a shared-budget batch.
type BatchJob struct {
	// Model is the job's analytic strategy model.
	Model analysis.Model
	// RMin is the job's minimum acceptable PoCD (may be 0).
	RMin float64
}

// BatchResult is the allocation for one job.
type BatchResult struct {
	// R is the granted number of extra attempts.
	R int
	// PoCD and MachineTime evaluate the grant.
	PoCD        float64
	MachineTime float64
	// Utility is log10(PoCD - RMin).
	Utility float64
}

// ErrBudgetTooSmall reports a budget below the cost of running every job
// with r = 0.
var ErrBudgetTooSmall = errors.New("optimize: budget below the r=0 cost of the batch")

// batchRCap bounds per-job allocations; PoCD saturates geometrically far
// below this.
const batchRCap = 64

// BatchSolve allocates the machine-time budget across the batch.
func BatchSolve(jobs []BatchJob, budget float64) ([]BatchResult, error) {
	if len(jobs) == 0 {
		return nil, errors.New("optimize: empty batch")
	}
	if math.IsNaN(budget) {
		return nil, ErrNaNBudget
	}
	// The greedy loop below re-evaluates every job's marginal step each
	// round; memoize the closed forms so each (job, r) pair is computed once.
	// The memos are pooled, so their dense caches are recycled across batches.
	models := make([]*memoModel, 0, len(jobs))
	defer func() {
		for _, m := range models {
			m.release()
		}
	}()
	rs := make([]int, len(jobs))
	spent := 0.0
	for i, j := range jobs {
		if err := j.Model.Params().Validate(); err != nil {
			return nil, fmt.Errorf("optimize: batch job %d: %w", i, err)
		}
		models = append(models, acquire(j.Model))
		spent += models[i].MachineTime(0)
	}
	if spent > budget {
		return nil, fmt.Errorf("%w: need %v, have %v", ErrBudgetTooSmall, spent, budget)
	}

	utility := func(i, r int) float64 {
		p := models[i].PoCD(r)
		if p <= jobs[i].RMin {
			return math.Inf(-1)
		}
		return math.Log10(p - jobs[i].RMin)
	}

	for {
		// Pick the affordable step with the best gain per cost.
		best, bestRate := -1, 0.0
		var bestCost float64
		for i := range jobs {
			if rs[i] >= batchRCap {
				continue
			}
			dCost := models[i].MachineTime(rs[i]+1) - models[i].MachineTime(rs[i])
			if dCost <= 0 {
				// Extra attempts can reduce expected machine time for
				// reactive strategies (straggler truncation): always take
				// a free improvement.
				dCost = 1e-12
			}
			if spent+dCost > budget+1e-9 {
				continue
			}
			dU := utility(i, rs[i]+1) - utility(i, rs[i])
			// Ignore float-epsilon gains once PoCD has saturated: they
			// would otherwise absorb the whole budget for nothing.
			if math.IsNaN(dU) || dU <= 1e-9 {
				continue
			}
			if rate := dU / dCost; best < 0 || rate > bestRate {
				best, bestRate, bestCost = i, rate, dCost
			}
		}
		if best < 0 {
			break
		}
		rs[best]++
		spent += bestCost
	}

	out := make([]BatchResult, len(jobs))
	for i := range jobs {
		out[i] = BatchResult{
			R:           rs[i],
			PoCD:        models[i].PoCD(rs[i]),
			MachineTime: models[i].MachineTime(rs[i]),
			Utility:     utility(i, rs[i]),
		}
	}
	return out, nil
}

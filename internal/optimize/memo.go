package optimize

import (
	"math"
	"slices"
	"sync"

	"chronos/internal/analysis"
)

// memoModel is the one way the solvers evaluate a model: it caches PoCD,
// MachineTime and the utility by r. The closed forms cost hundreds of
// floating-point operations per call, the Algorithm 1 bracketing search and
// the capped scan revisit the same r values, and a batch job's window reads
// again the r + 1 its saturation test probed, so every (model, r) pair is
// evaluated at most once per solve.
//
// The caches are dense NaN-sentinel slices indexed by r rather than maps, so
// a pooled memoModel solves without allocating: the slices keep their
// capacity (at most searchCap entries, the bound on every r a solve probes)
// across pool cycles; an r past it is evaluated uncached. A genuine NaN model
// output is simply recomputed on each probe, which is correct, just not
// cached. For a (strategy, params) pair the memo evaluates its own embedded
// analysis.Evaluator, so binding one costs a BindJob and a Rebind and no
// allocation, and the strategies of one job share the job's terms.
//
// Not safe for concurrent use; acquire one per solve call.
type memoModel struct {
	analysis.Model // evaluation target; &ev when bound to a job
	ev             analysis.Evaluator
	pocd           []float64 // dense r-indexed caches; NaN marks an empty slot
	mt             []float64
	u              []float64 // cfg.Utility, for the one Config a solve uses
	window         []Point   // scratch for the capped scan, see scanWindow
	order          []int32   // scratch for a frontier's sort, see undominated
}

var memoPool = sync.Pool{New: func() any { return new(memoModel) }}

// acquire returns a pooled memo over m. The caller must release it after the
// last use of any value derived from it.
func acquire(m analysis.Model) *memoModel {
	mm := memoPool.Get().(*memoModel)
	mm.Model = m
	return mm
}

// acquireStrategy returns a pooled memo evaluating (s, p) through its own
// recurrence kernel, skipping the interface boxing entirely.
func acquireStrategy(s analysis.Strategy, p analysis.Params) *memoModel {
	mm := acquireJob(p)
	mm.ev.Rebind(s)
	return mm
}

// acquireJob returns a pooled memo whose kernel is bound to the job p and
// to no strategy yet: rebind one before evaluating.
func acquireJob(p analysis.Params) *memoModel {
	mm := memoPool.Get().(*memoModel)
	mm.ev.BindJob(p)
	mm.Model = &mm.ev
	return mm
}

// rebind points a job-bound memo at strategy s, emptying the caches the
// previous strategy filled.
func (m *memoModel) rebind(s analysis.Strategy) {
	m.ev.Rebind(s)
	m.pocd, m.mt, m.u = m.pocd[:0], m.mt[:0], m.u[:0]
}

// release empties the caches, keeping their capacity, and returns the memo
// to the pool.
func (m *memoModel) release() {
	m.Model = nil
	m.pocd, m.mt, m.u = m.pocd[:0], m.mt[:0], m.u[:0]
	memoPool.Put(m)
}

func denseLoad(s []float64, r int) (float64, bool) {
	if r >= 0 && r < len(s) {
		if v := s[r]; !math.IsNaN(v) {
			return v, true
		}
	}
	return 0, false
}

func denseStore(s []float64, r int, v float64) []float64 {
	if r >= searchCap {
		return s
	}
	if n := len(s); r >= n {
		s = slices.Grow(s, r+1-n)[:r+1]
		for i := n; i < r; i++ {
			s[i] = math.NaN()
		}
	}
	s[r] = v
	return s
}

func (m *memoModel) PoCD(r int) float64 {
	if v, ok := denseLoad(m.pocd, r); ok {
		return v
	}
	v := m.Model.PoCD(r)
	m.pocd = denseStore(m.pocd, r, v)
	return v
}

func (m *memoModel) MachineTime(r int) float64 {
	if v, ok := denseLoad(m.mt, r); ok {
		return v
	}
	v := m.Model.MachineTime(r)
	m.mt = denseStore(m.mt, r, v)
	return v
}

// utility is cfg.Utility(m, r), cached by r like the two metrics: the
// bracketing search asks for the same r more than once, and pointAt again
// for the r it keeps. A memo serves one Config from acquire to release.
func (m *memoModel) utility(cfg Config, r int) float64 {
	if v, ok := denseLoad(m.u, r); ok {
		return v
	}
	v := cfg.Utility(m, r)
	m.u = denseStore(m.u, r, v)
	return v
}

// pointAt evaluates both sides of the tradeoff and the utility at r. Unlike
// Config.Utility it evaluates the machine time of an infeasible r too: the
// tradeoff curve and the scan window report it.
func (m *memoModel) pointAt(cfg Config, r int) Point {
	pocd, mt := m.PoCD(r), m.MachineTime(r)
	return Point{R: r, PoCD: pocd, MachineTime: mt, Cost: cfg.UnitPrice * mt, Utility: m.utility(cfg, r)}
}

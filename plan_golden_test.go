package chronos_test

// Cross-commit pin of the planner. kernel_property_test.go compares the
// closed forms with their references inside one binary and the replay goldens
// pin only the r a replayed job was planned with, so neither notices a change
// that moves a plan's low-order bits everywhere at once. This test does: for
// a fixed set of (JobParams, Econ) cells it runs every analytic entry point of
// package chronos and compares a digest of the %x-exact answers — floats,
// chosen r, error text — with testdata/plan_golden.json.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chronos"
)

const planGoldenPath = "testdata/plan_golden.json"

// planTranscriptsEnv names a directory that receives every cell's transcript
// as text, which is what to diff between two commits when a digest moves.
const planTranscriptsEnv = "CHRONOS_PLAN_TRANSCRIPTS"

type planGoldenRow struct {
	Name string `json:"name"`
	// Best is OptimizeBest's answer in short form, for a reader of the file;
	// SHA256 digests the cell's whole transcript (planTranscript).
	Best   string `json:"best"`
	SHA256 string `json:"sha256"`
}

type planCell struct {
	name string
	job  chronos.JobParams
	econ chronos.Econ
}

// splitmix is the cell generator's random stream, written out here so the
// cells depend on no library's choice of algorithm.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) between(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(s.next()>>11)/(1<<53)
}

func (s *splitmix) pick(vs ...float64) float64 { return vs[s.next()%uint64(len(vs))] }

// planCells is the pinned set: the shapes bench/gen.go and SyntheticTrace
// draw under the replay's default control instants, a seeded spread over the
// ranges the paper's figures use, and the corners a rewrite of the closed
// forms or of Algorithm 1 is most likely to disturb.
func planCells(t *testing.T) []planCell {
	t.Helper()
	var cells []planCell
	add := func(name string, job chronos.JobParams, econ chronos.Econ) {
		cells = append(cells, planCell{name: name, job: job, econ: econ})
	}
	benchEcon := chronos.Econ{Theta: 1e-4, UnitPrice: 1}

	trace, err := chronos.SyntheticTrace(chronos.TraceConfig{Jobs: 80, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range trace {
		add(fmt.Sprintf("trace/%03d", i), chronos.JobParams{
			Tasks: j.Tasks, Deadline: j.Deadline, TMin: j.TMin, Beta: j.Beta,
			TauEst: 0.3 * j.TMin, TauKill: 0.6 * j.TMin,
		}, benchEcon)
	}

	rng := splitmix(18)
	for i := 0; i < 80; i++ {
		tmin := rng.between(1, 60)
		job := chronos.JobParams{
			Tasks: 1 + int(rng.between(0, 10)*rng.pick(0.5, 1, 10, 200)),
			TMin:  tmin,
			Beta:  rng.between(1.05, 2.5),
		}
		u := rng.between(0, 1)
		job.Deadline = tmin * (1.3 + 9*u*u)
		// The control instants sit at a fraction of the slack past tmin, so
		// a restarted attempt keeps at least 1.15 tmin: the band just above
		// tmin is the corner rows' business.
		job.TauEst = rng.between(0, 1) * (job.Deadline - 1.15*tmin)
		job.TauKill = job.TauEst + rng.between(0, 1)*(job.Deadline-job.TauEst)
		if rng.next()%4 == 0 {
			job.PhiEst = rng.between(0.05, 0.7)
		}
		econ := chronos.Econ{
			Theta:     rng.pick(1e-6, 1e-5, 1e-4, 1e-3, 1e-2) * rng.between(1, 10),
			UnitPrice: rng.between(0.2, 5),
		}
		if rng.next()%3 == 0 {
			econ.RMin = rng.between(0.1, 0.95)
		}
		add(fmt.Sprintf("rand/%03d", i), job, econ)
	}

	base := chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	with := func(edit func(*chronos.JobParams)) chronos.JobParams {
		j := base
		edit(&j)
		return j
	}
	add("corner/base", base, benchEcon)
	for _, beta := range []float64{1.0001, 1.001, 1.01} {
		add(fmt.Sprintf("corner/beta-%g", beta), with(func(j *chronos.JobParams) { j.Beta = beta }), benchEcon)
		add(fmt.Sprintf("corner/beta-%g-tight", beta), with(func(j *chronos.JobParams) {
			j.Beta, j.Deadline, j.TauEst, j.TauKill = beta, 25, 5, 12
		}), benchEcon)
	}
	add("corner/beta-3", with(func(j *chronos.JobParams) { j.Beta = 3 }), benchEcon)
	// D barely above tmin: Clone's ratio (tmin/D)^beta is close to 1 and the
	// restarted attempts cannot finish (quadrature fallback, failExtra = 1).
	for _, d := range []float64{10.05, 10.25, 11} {
		add(fmt.Sprintf("corner/deadline-%g", d), with(func(j *chronos.JobParams) {
			j.Deadline, j.TauEst, j.TauKill = d, 0.3, 0.6
		}), benchEcon)
	}
	for _, d := range []float64{10.5, 11} {
		add(fmt.Sprintf("corner/deadline-%g-tau0", d), with(func(j *chronos.JobParams) {
			j.Tasks, j.Deadline, j.TauEst, j.TauKill = 3, d, 0, d
		}), benchEcon)
	}
	// D - tauEst <= tmin: Restart's survivor term is integrated numerically.
	add("corner/quadrature", with(func(j *chronos.JobParams) { j.Deadline, j.TauEst, j.TauKill = 20, 12, 15 }), benchEcon)
	add("corner/quadrature-edge", with(func(j *chronos.JobParams) { j.Deadline, j.TauEst, j.TauKill = 20, 10, 20 }), benchEcon)
	add("corner/quadrature-resume", with(func(j *chronos.JobParams) {
		j.Deadline, j.TauEst, j.TauKill, j.PhiEst = 20, 15, 18, 0.1
	}), benchEcon)
	add("corner/tau0-kill-late", with(func(j *chronos.JobParams) { j.TauEst, j.TauKill = 0, 100 }), benchEcon)
	add("corner/tau-close", with(func(j *chronos.JobParams) { j.TauEst, j.TauKill = 40, 41 }), benchEcon)
	add("corner/tau-late", with(func(j *chronos.JobParams) { j.TauEst, j.TauKill = 80, 100 }), benchEcon)
	add("corner/phi-0.5", with(func(j *chronos.JobParams) { j.PhiEst = 0.5 }), benchEcon)
	add("corner/phi-0.95", with(func(j *chronos.JobParams) { j.PhiEst = 0.95 }), benchEcon)
	add("corner/one-task", with(func(j *chronos.JobParams) { j.Tasks = 1 }), benchEcon)
	add("corner/many-tasks", with(func(j *chronos.JobParams) { j.Tasks = 100000 }), benchEcon)
	add("corner/many-tasks-tight", with(func(j *chronos.JobParams) {
		j.Tasks, j.Deadline, j.TauEst, j.TauKill = 20000, 30, 8, 16
	}), benchEcon)
	// RMin: an infeasible prefix below the optimum, a prefix that swallows
	// it, and a floor no r reaches.
	add("corner/rmin-prefix", base, chronos.Econ{Theta: 1e-4, UnitPrice: 1, RMin: 0.9})
	add("corner/rmin-prefix-deep", with(func(j *chronos.JobParams) { j.Tasks, j.Deadline, j.TauEst, j.TauKill = 2000, 40, 10, 20 }),
		chronos.Econ{Theta: 1e-4, UnitPrice: 1, RMin: 0.999})
	add("corner/rmin-prefix-costly", base, chronos.Econ{Theta: 1e-2, UnitPrice: 1, RMin: 0.99999})
	add("corner/rmin-infeasible", with(func(j *chronos.JobParams) { j.Deadline, j.TauEst, j.TauKill = 10.5, 0.2, 0.4 }),
		chronos.Econ{Theta: 1e-4, UnitPrice: 1, RMin: 0.999999})
	add("corner/rmin-infeasible-all", with(func(j *chronos.JobParams) { j.Deadline, j.TauEst, j.TauKill = 10.2, 0.3, 0.6 }),
		chronos.Econ{Theta: 1e-4, UnitPrice: 1, RMin: 0.9999999})
	for _, theta := range []float64{1e-9, 1e-7, 1, 50} {
		add(fmt.Sprintf("corner/theta-%g", theta), base, chronos.Econ{Theta: theta, UnitPrice: 1})
	}
	add("corner/theta-1e-09-tight", with(func(j *chronos.JobParams) { j.Tasks, j.Deadline, j.TauEst, j.TauKill = 500, 25, 5, 12 }),
		chronos.Econ{Theta: 1e-9, UnitPrice: 1})
	add("corner/price-1e+06", base, chronos.Econ{Theta: 1e-4, UnitPrice: 1e6})
	add("corner/price-1e-06", base, chronos.Econ{Theta: 1e-4, UnitPrice: 1e-6})

	// The rows above were generated at 9fcfccc. The cells below could not be
	// answered there, and each was pinned by the commit that fixed it.
	// D - tauEst within a few percent of tmin, or beta*r in the hundreds for
	// another reason: tmin^(beta r) overflowed in Restart's survivor term and
	// some probe (or the plan itself) was NaN.
	add("fixed/restart-nan", with(func(j *chronos.JobParams) {
		j.Tasks, j.Deadline, j.TauEst, j.TauKill = 1000, 20, 9.9, 15
	}), benchEcon)
	add("fixed/beta-5", with(func(j *chronos.JobParams) { j.Beta = 5 }), benchEcon)
	add("fixed/deadline-10.5", with(func(j *chronos.JobParams) { j.Deadline, j.TauEst, j.TauKill = 10.5, 0.2, 0.4 }), benchEcon)
	add("fixed/deadline-10.05-tau0", with(func(j *chronos.JobParams) {
		j.Tasks, j.Deadline, j.TauEst, j.TauKill = 3, 10.05, 0, 10.05
	}), benchEcon)
	add("fixed/rmin-infeasible-tau0", with(func(j *chronos.JobParams) { j.Deadline, j.TauEst, j.TauKill = 10.2, 0, 0 }),
		chronos.Econ{Theta: 1e-4, UnitPrice: 1, RMin: 0.9999999})
	// Solves that ran away: D - tauEst millionths above tmin puts Gamma in the
	// millions, and with tauKill = tauEst (or tauKill = 0) an extra attempt is
	// free, so the utility rises for ever. The search cap fails both closed;
	// the last cell is the dearest solve it still admits (Gamma ~ 7,980).
	add("fixed/search-cap", with(func(j *chronos.JobParams) {
		j.Tasks, j.Deadline, j.TauEst, j.TauKill = 1000, 20, 9.999997, 15
	}), benchEcon)
	add("fixed/tau0", with(func(j *chronos.JobParams) { j.TauEst, j.TauKill = 0, 0 }), benchEcon)
	add("fixed/tau-equal", with(func(j *chronos.JobParams) { j.TauEst, j.TauKill = 40, 40 }), benchEcon)
	add("fixed/gamma-7980", with(func(j *chronos.JobParams) {
		j.Tasks, j.Deadline, j.TauEst, j.TauKill = 1000, 20, 9.9951, 15
	}), benchEcon)
	return cells
}

// planTranscript runs every analytic entry point on one cell and writes what
// each returned, floats as %x so the digest pins every bit.
func planTranscript(c planCell) (best string, transcript []byte) {
	var b bytes.Buffer
	val := func(label string, v float64, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s: error %q\n", label, err)
			return
		}
		fmt.Fprintf(&b, "%s: %x\n", label, v)
	}
	planText := func(p chronos.Plan, err error) string {
		if err != nil {
			return fmt.Sprintf("error %q", err)
		}
		return fmt.Sprintf("%v r=%d pocd=%x machineTime=%x cost=%x utility=%x",
			p.Strategy, p.R, p.PoCD, p.MachineTime, p.Cost, p.Utility)
	}
	plan := func(label string, p chronos.Plan, err error) {
		fmt.Fprintf(&b, "%s: %s\n", label, planText(p, err))
	}
	// budgets scales the machine time of the unconstrained answer (r = 0's
	// when there is none), so a cell squeezes, nearly fits and fits.
	budgets := func(un chronos.Plan, err error, s chronos.Strategy) [3]float64 {
		at := un.MachineTime
		if err != nil {
			if at, err = chronos.ExpectedMachineTime(s, c.job, 0); err != nil {
				at = 1
			}
		}
		return [3]float64{0.5 * at, 0.9 * at, 2 * at}
	}

	j, e := c.job, c.econ
	fmt.Fprintf(&b, "job: tasks=%d deadline=%x tmin=%x beta=%x tauEst=%x tauKill=%x phiEst=%x\n",
		j.Tasks, j.Deadline, j.TMin, j.Beta, j.TauEst, j.TauKill, j.PhiEst)
	fmt.Fprintf(&b, "econ: theta=%x unitPrice=%x rmin=%x\n", e.Theta, e.UnitPrice, e.RMin)

	for _, s := range chronos.ChronosStrategies() {
		for _, r := range []int{0, 1, 2, 5, 17} {
			v, err := chronos.PoCD(s, j, r)
			val(fmt.Sprintf("%v PoCD(%d)", s, r), v, err)
			v, err = chronos.ExpectedMachineTime(s, j, r)
			val(fmt.Sprintf("%v ExpectedMachineTime(%d)", s, r), v, err)
		}
		un, err := chronos.Optimize(s, j, e)
		plan(fmt.Sprintf("%v Optimize", s), un, err)
		bf, bfErr := chronos.NewBudgetFrontier(s, j, e)
		if bfErr != nil {
			fmt.Fprintf(&b, "%v NewBudgetFrontier: error %q\n", s, bfErr)
		}
		for _, budget := range budgets(un, err, s) {
			p, err := chronos.OptimizeWithinBudget(s, j, e, budget)
			plan(fmt.Sprintf("%v OptimizeWithinBudget(%x)", s, budget), p, err)
			if bfErr == nil {
				p, err = bf.PlanWithinBudget(budget)
				plan(fmt.Sprintf("%v BudgetFrontier.PlanWithinBudget(%x)", s, budget), p, err)
			}
		}
		pts, err := chronos.TradeoffCurve(s, j, e, 8)
		if err != nil {
			fmt.Fprintf(&b, "%v TradeoffCurve: error %q\n", s, err)
		}
		for _, pt := range pts {
			fmt.Fprintf(&b, "%v TradeoffCurve r=%d pocd=%x machineTime=%x cost=%x utility=%x\n",
				s, pt.R, pt.PoCD, pt.MachineTime, pt.Cost, pt.Utility)
		}
		p, err := chronos.MinCostForPoCD(s, j, e, 0.99)
		plan(fmt.Sprintf("%v MinCostForPoCD(0.99)", s), p, err)
		v, err := chronos.DeadlineQuantile(s, j, 2, 0.99)
		val(fmt.Sprintf("%v DeadlineQuantile(2, 0.99)", s), v, err)
	}

	un, err := chronos.OptimizeBest(j, e)
	best = planText(un, err)
	if err == nil {
		best = fmt.Sprintf("%v r=%d pocd=%.6g", un.Strategy, un.R, un.PoCD)
	}
	plan("OptimizeBest", un, err)
	bf, bfErr := chronos.NewBudgetFrontierBest(j, e)
	if bfErr != nil {
		fmt.Fprintf(&b, "NewBudgetFrontierBest: error %q\n", bfErr)
	} else {
		plan("BudgetFrontierBest.Unconstrained", bf.Unconstrained(), nil)
	}
	for _, budget := range budgets(un, err, chronos.Clone) {
		p, err := chronos.OptimizeBestWithinBudget(j, e, budget)
		plan(fmt.Sprintf("OptimizeBestWithinBudget(%x)", budget), p, err)
		if bfErr == nil {
			p, err = bf.PlanWithinBudget(budget)
			plan(fmt.Sprintf("BudgetFrontierBest.PlanWithinBudget(%x)", budget), p, err)
		}
	}

	// One shared-budget batch of eight variations of the cell, strategies
	// rotating, given half again the machine time r = 0 costs.
	batch := make([]chronos.BatchJob, 8)
	budget := 0.0
	for i := range batch {
		p := j
		p.Tasks += i
		p.Deadline *= 1 + 0.03*float64(i)
		batch[i] = chronos.BatchJob{Strategy: chronos.ChronosStrategies()[i%3], Params: p}
		if i%2 == 0 {
			batch[i].RMin = e.RMin
		}
		if mt, err := chronos.ExpectedMachineTime(batch[i].Strategy, p, 0); err == nil {
			budget += 1.5 * mt
		}
	}
	plans, err := chronos.PlanBatch(batch, budget)
	if err != nil {
		fmt.Fprintf(&b, "PlanBatch(%x): error %q\n", budget, err)
	}
	for i, p := range plans {
		fmt.Fprintf(&b, "PlanBatch(%x)[%d]: r=%d pocd=%x machineTime=%x\n", budget, i, p.R, p.PoCD, p.MachineTime)
	}
	return best, b.Bytes()
}

func TestPlanGolden(t *testing.T) {
	var rows []planGoldenRow
	if data, err := os.ReadFile(planGoldenPath); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatalf("%s: %v", planGoldenPath, err)
		}
	} else if !*updateGolden {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := make(map[string]planGoldenRow, len(rows))
	for _, r := range rows {
		want[r.Name] = r
	}

	dumpDir := os.Getenv(planTranscriptsEnv)
	added := 0
	for _, c := range planCells(t) {
		w, pinned := want[c.name]
		if !pinned && !*updateGolden {
			t.Errorf("%s: no golden row (run with -update to add it)", c.name)
			continue
		}
		start := time.Now()
		best, transcript := planTranscript(c)
		took := time.Since(start)
		if dumpDir != "" {
			file := filepath.Join(dumpDir, strings.ReplaceAll(c.name, "/", "_")+".txt")
			if err := os.WriteFile(file, transcript, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// A cell is pinned only by a commit that can answer it: no entry
		// point may return NaN, and none may take unbounded work.
		if bytes.Contains(transcript, []byte("NaN")) {
			t.Errorf("%s: NaN in an answer\n%s", c.name, transcript)
			continue
		}
		if took > time.Second {
			t.Errorf("%s: took %v", c.name, took)
			continue
		}
		sum := sha256.Sum256(transcript)
		got := planGoldenRow{Name: c.name, Best: best, SHA256: hex.EncodeToString(sum[:])}
		if !pinned {
			rows = append(rows, got)
			added++
			continue
		}
		if got != w {
			t.Errorf("%s: plan moved (diff the transcripts: %s=dir at both commits)\n got %+v\nwant %+v",
				c.name, planTranscriptsEnv, got, w)
		}
	}
	if added > 0 {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("added %d rows to %s", added, planGoldenPath)
	}
}

package chronos_test

// Cross-commit pin of the simulation. TestEventStreamDeterminism compares two
// runs of one binary and TestFoldMatchesSimulate compares Simulate with the
// Replay it is built on, so neither notices a change that moves every run the
// same way. This test does: it replays a fixed matrix of configurations and
// compares a digest of each complete event stream, and the final Report to
// the last bit, with testdata/replay_golden.json.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"chronos"
	"chronos/internal/hotjson"
)

// -update adds the rows the golden file does not have yet. It never
// overwrites a row: to re-pin one on purpose, delete it from the file first.
var updateGolden = flag.Bool("update", false, "add missing rows to testdata/replay_golden.json")

const goldenPath = "testdata/replay_golden.json"

type goldenRow struct {
	Name string `json:"name"`
	// Events is the number of stream entries, SHA256 the digest of their
	// concatenated hotjson.AppendReplayEvent lines (the bytes /v1/replay
	// sends), Report the final Report with %x-exact floats.
	Events int    `json:"events"`
	SHA256 string `json:"sha256"`
	Report string `json:"report"`
}

type goldenCase struct {
	name   string
	cfg    chronos.SimConfig
	jobs   []chronos.SimJob
	window float64
}

// goldenCases is the pinned matrix: every strategy on the default cluster,
// then the paths a rewrite of the event loop is most likely to disturb —
// a saturated cluster (queueing, waiters killed while queued, tauKill with
// nothing running), reduce stages, periodic noisy reports, window summaries
// and fixed r on one-task jobs.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	base, err := chronos.SyntheticTrace(chronos.TraceConfig{Jobs: 120, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	withReduce := make([]chronos.SimJob, len(base))
	oneTask := make([]chronos.SimJob, len(base))
	for i, j := range base {
		withReduce[i], oneTask[i] = j, j
		withReduce[i].ReduceTasks = 1 + j.Tasks/8
		oneTask[i].Tasks = 1
	}

	type strat struct {
		short string
		s     chronos.Strategy
	}
	chronosStrats := []strat{
		{"clone", chronos.Clone},
		{"restart", chronos.SpeculativeRestart},
		{"resume", chronos.SpeculativeResume},
	}
	baselines := []strat{
		{"hadoop-ns", chronos.HadoopNS},
		{"hadoop-s", chronos.HadoopS},
		{"mantri", chronos.Mantri},
	}
	saturated := func(c chronos.SimConfig) chronos.SimConfig {
		c.Nodes, c.SlotsPerNode = 8, 4
		return c
	}
	tight := func(c chronos.SimConfig) chronos.SimConfig {
		c.Nodes, c.SlotsPerNode = 40, 8
		return c
	}

	var cases []goldenCase
	add := func(name string, cfg chronos.SimConfig, jobs []chronos.SimJob, window float64) {
		cases = append(cases, goldenCase{name: name, cfg: cfg, jobs: jobs, window: window})
	}
	for _, s := range append(append([]strat{}, chronosStrats...), baselines...) {
		add("default/"+s.short, chronos.SimConfig{Strategy: s.s, Seed: 7}, base, 0)
	}
	for _, s := range chronosStrats {
		add("saturated/"+s.short, saturated(chronos.SimConfig{Strategy: s.s, Seed: 8}), base, 0)
	}
	for _, s := range baselines[1:] {
		add("tight/"+s.short, tight(chronos.SimConfig{Strategy: s.s, Seed: 8}), base, 0)
	}
	for _, s := range chronosStrats {
		add("reduce/"+s.short, chronos.SimConfig{Strategy: s.s, Seed: 11}, withReduce, 0)
	}
	add("reduce-saturated/resume", saturated(chronos.SimConfig{Strategy: chronos.SpeculativeResume, Seed: 11}), withReduce, 0)
	for _, s := range chronosStrats[1:] {
		add("reports/"+s.short, chronos.SimConfig{Strategy: s.s, Seed: 12, ReportInterval: 2, ReportNoise: 0.1}, base, 0)
	}
	add("window/resume", chronos.SimConfig{Strategy: chronos.SpeculativeResume, Seed: 14}, base, 600)
	add("window-saturated/clone", saturated(chronos.SimConfig{Strategy: chronos.Clone, Seed: 14}), base, 45)
	for _, s := range chronosStrats {
		for _, r := range []int{0, 3} {
			add(fmt.Sprintf("fixed-r%d-one-task/%s", r, s.short),
				chronos.SimConfig{Strategy: s.s, Seed: 15, UseFixedR: true, FixedR: r}, oneTask, 0)
		}
	}
	return cases
}

// runGolden replays one case and digests it.
func runGolden(t *testing.T, c goldenCase) goldenRow {
	t.Helper()
	h := sha256.New()
	var buf []byte
	events := 0
	rep, err := chronos.Replay(context.Background(), c.cfg, c.jobs, chronos.ReplayOptions{
		WindowSeconds: c.window,
		Observer: chronos.ReplayObserverFunc(func(ev *chronos.ReplayEvent) error {
			var err error
			if buf, err = hotjson.AppendReplayEvent(buf[:0], ev); err != nil {
				return err
			}
			buf = append(buf, '\n')
			h.Write(buf)
			events++
			return nil
		}),
	})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	rs := make([]int, 0, len(rep.RHistogram))
	for r := range rep.RHistogram {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	var hist strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&hist, " r%d=%d", r, rep.RHistogram[r])
	}
	return goldenRow{
		Name:   c.name,
		Events: events,
		SHA256: hex.EncodeToString(h.Sum(nil)),
		Report: fmt.Sprintf("jobs=%d pocd=%x machineTime=%x cost=%x utility=%x%s",
			rep.Jobs, rep.PoCD, rep.MeanMachineTime, rep.MeanCost, rep.Utility, hist.String()),
	}
}

func TestReplayGolden(t *testing.T) {
	var rows []goldenRow
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	} else if !*updateGolden {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := make(map[string]goldenRow, len(rows))
	for _, r := range rows {
		want[r.Name] = r
	}

	added := 0
	for _, c := range goldenCases(t) {
		w, pinned := want[c.name]
		if !pinned && !*updateGolden {
			t.Errorf("%s: no golden row (run with -update to add it)", c.name)
			continue
		}
		got := runGolden(t, c)
		if !pinned {
			rows = append(rows, got)
			added++
			continue
		}
		if got != w {
			t.Errorf("%s: simulation moved\n got %+v\nwant %+v", c.name, got, w)
		}
	}
	if added > 0 {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("added %d rows to %s", added, goldenPath)
	}
}

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"chronos"
	"chronos/client"
)

// metricDef declares one metric the benchmark reports; BENCHMARK.json lists
// the same names, units and directions (a test compares the two).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd are the gated metrics, reported by every untraced run. The bounds
// are three to four times the spreads this class of runner shows between
// runs of the same code (README.md, "Steadiness"), not what a regression is
// worth.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sat_ops_s", "ops/s", "higher", 0.2},
	{"sat_p50_us", "us", "lower", 0.2},
	{"sat_p99_us", "us", "lower", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.2},
	{"server_peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the diagnostics, reported by every traced run. A metric the
// workload under test does not exercise reads 0.
var perLayer = []metricDef{
	{name: "analysis.eval_ns", unit: "ns", better: "lower"},
	{name: "optimize.solve_best_ns", unit: "ns", better: "lower"},
	{name: "optimize.solve_allocs", unit: "count", better: "lower"},
	{name: "optimize.frontier_build_ns", unit: "ns", better: "lower"},
	{name: "optimize.frontier_query_ns", unit: "ns", better: "lower"},
	{name: "plankey.key_ns", unit: "ns", better: "lower"},
	{name: "hotjson.decode_plan_ns", unit: "ns", better: "lower"},
	{name: "hotjson.encode_plan_ns", unit: "ns", better: "lower"},
	{name: "hotjson.decode_admit_ns", unit: "ns", better: "lower"},
	{name: "hotjson.encode_admit_ns", unit: "ns", better: "lower"},
	{name: "hotjson.encode_event_ns", unit: "ns", better: "lower"},
	{name: "tenant.pool_debit_ns", unit: "ns", better: "lower"},
	{name: "tenant.escrow_debit_ns", unit: "ns", better: "lower"},
	{name: "tenant.wal_append_ns", unit: "ns", better: "lower"},
	{name: "tenant.wal_bytes_per_admit", unit: "B", better: "lower"},
	{name: "ring.owner_ns", unit: "ns", better: "lower"},
	{name: "obs.trace_ns", unit: "ns", better: "lower"},
	{name: "obs.request_log_ns", unit: "ns", better: "lower"},
	{name: "metrics.observe_ns", unit: "ns", better: "lower"},
	{name: "server.plan_hit_ns", unit: "ns", better: "lower"},
	{name: "server.plan_hit_allocs", unit: "count", better: "lower"},
	{name: "server.plan_miss_ns", unit: "ns", better: "lower"},
	{name: "server.plan_miss_allocs", unit: "count", better: "lower"},
	{name: "server.admit_ns", unit: "ns", better: "lower"},
	{name: "server.admit_allocs", unit: "count", better: "lower"},
	{name: "server.admit_escrow_wal_ns", unit: "ns", better: "lower"},
	{name: "server.admit_escrow_wal_allocs", unit: "count", better: "lower"},
	{name: "server.admit_batch16_ns", unit: "ns", better: "lower"},
	{name: "server.admit_batch16_allocs", unit: "count", better: "lower"},
	{name: "server.self_hit_ns", unit: "ns", better: "lower"},
	{name: "server.self_miss_ns", unit: "ns", better: "lower"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.singleflight_waiters", unit: "count", better: "lower"},
	{name: "server.forwarded_frac", unit: "ratio", better: "lower"},
	{name: "server.local_fallbacks", unit: "count", better: "lower"},
	{name: "server.escrow_topups", unit: "count", better: "lower"},
	{name: "server.stage_quantize_us_per_op", unit: "us", better: "lower"},
	{name: "server.stage_cache_us_per_op", unit: "us", better: "lower"},
	{name: "server.stage_solve_us_per_op", unit: "us", better: "lower"},
	{name: "server.stage_debit_us_per_op", unit: "us", better: "lower"},
	{name: "server.stage_escrow_us_per_op", unit: "us", better: "lower"},
	{name: "server.stage_forward_us_per_op", unit: "us", better: "lower"},
	{name: "server.stage_replay_emit_us_per_op", unit: "us", better: "lower"},
	{name: "server.unaccounted_us_per_op", unit: "us", better: "lower"},
	{name: "server.batch16_p50_us", unit: "us", better: "lower"},
	{name: "socket.one_client_p50_us", unit: "us", better: "lower"},
	{name: "socket.overhead_us", unit: "us", better: "lower"},
	{name: "socket.paced_p50_us", unit: "us", better: "lower"},
	{name: "socket.paced_p99_us", unit: "us", better: "lower"},
	{name: "socket.paced_late_frac", unit: "ratio", better: "lower"},
	{name: "socket.gen_lag_p99_us", unit: "us", better: "lower"},
	{name: "client.plan_overhead_us", unit: "us", better: "lower"},
	{name: "sim.event_ns", unit: "ns", better: "lower"},
	{name: "sim.event_allocs", unit: "count", better: "lower"},
	{name: "cluster.alloc_release_ns", unit: "ns", better: "lower"},
	{name: "mapreduce.task_ns", unit: "ns", better: "lower"},
	{name: "speculate.task_ns.clone", unit: "ns", better: "lower"},
	{name: "speculate.task_ns.restart", unit: "ns", better: "lower"},
	{name: "speculate.task_ns.resume", unit: "ns", better: "lower"},
	{name: "replay.run_jobs_s", unit: "jobs/s", better: "higher"},
	{name: "replay.emit_jobs_s", unit: "jobs/s", better: "higher"},
	{name: "replay.allocs_per_job", unit: "count", better: "lower"},
	{name: "replay.build_ms", unit: "ms", better: "lower"},
	{name: "replay.first_event_ms", unit: "ms", better: "lower"},
	{name: "replay.stream_bytes_per_job", unit: "B", better: "lower"},
	{name: "replay.pocd_abs_err", unit: "ratio", better: "lower"},
	{name: "replay.cost_rel_err", unit: "ratio", better: "lower"},
	{name: "trace.generate_ns_per_job", unit: "ns", better: "lower"},
	{name: "bench.build_s", unit: "s", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "bench.span_count", unit: "count", better: "lower"},
	{name: "bench.host_speed", unit: "ratio", better: "higher"},
}

var workloadNames = []string{"plan_hot", "plan_cold", "fleet_admit", "replay_stream"}

// runConfig is one invocation's request.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's answer for one run; its JSON form is the last
// line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable findings, printed above the JSON line
}

// setupRuns is how many times an untraced run boots and warms the servers;
// setup_s is the median, and the last boot serves the measured phase.
const setupRuns = 7

// Rates that provision the finite streams: no host of this class gets near
// them, and a measured phase whose stream does run out fails the run.
const (
	coldOpsPerClientSecond  = 20000
	fleetOpsPerClientSecond = 10000
)

// oneClientPhase is how long a traced run calls client.Plan for.
const oneClientPhase = time.Second

func (e *env) run(cfg runConfig) (*result, error) {
	var (
		wl  *workload
		err error
	)
	d := time.Duration(cfg.seconds * float64(time.Second))
	switch cfg.workload {
	case "plan_hot":
		wl, err = newPlanHot(cfg.seed)
	case "plan_cold":
		// A traced run adds a paced stream, stream clients+1, to the
		// closed-loop client's.
		perStream := int(cfg.seconds*coldOpsPerClientSecond) + 2*coldOpsPerClientSecond
		streams := clients
		if cfg.traced {
			streams += 2
		}
		wl, err = newPlanCold(cfg.seed, perStream, streams)
	case "fleet_admit":
		wl, err = newFleetAdmit(cfg.seed, int(cfg.seconds*fleetOpsPerClientSecond))
	case "replay_stream":
		return e.runReplays(cfg, d)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return e.runServing(wl, cfg, d)
}

// boot starts the workload's servers and sends the warm-up, judging its
// answers; it returns the fleet and the seconds from exec to warm.
func (e *env) boot(wl *workload, res *result, failures *failureLog) (*fleet, float64, error) {
	t0 := time.Now()
	fl, err := e.startFleet(wl.spec)
	if err != nil {
		return nil, 0, err
	}
	rec, err := drain(fl.addrs, wl.warm())
	if err != nil {
		fl.stop()
		return nil, 0, err
	}
	took := time.Since(t0).Seconds()
	verify(wl.warm(), rec, failures)
	res.Attempted += len(rec.lat)
	return fl, took, nil
}

// setupYardstickBurst is the reference server's turn before every boot.
const setupYardstickBurst = 50 * time.Millisecond

// bootRuns boots n times, stopping all but the last fleet, and returns that
// fleet with every boot's seconds on the standard host: as measured, scaled
// by the host's speed just before.
func bootRuns(n int, y *yardstick, boot func() (*fleet, float64, error)) (*fleet, []float64, error) {
	var (
		fl     *fleet
		setups []float64
	)
	for i := 0; i < n; i++ {
		if fl != nil {
			fl.stop()
		}
		refOps, refBusy, err := y.burst(setupYardstickBurst)
		if err != nil {
			return nil, nil, err
		}
		var took float64
		if fl, took, err = boot(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, took*hostSpeed(refOps, refBusy))
	}
	y.tail() // the measured phase's first slice starts afresh
	return fl, setups, nil
}

// phaseStats is what the servers report about a measured interval.
type phaseStats struct {
	before, after scrape
	u0            usage // at the start; the servers' peak RSS starts over there
	data0, data1  int64
}

func (p *phaseStats) begin(fl *fleet) (err error) {
	if p.before, err = fl.scrape(); err != nil {
		return err
	}
	p.data0 = fl.dataBytes()
	p.u0, err = fl.sample()
	return err
}

func (p *phaseStats) end(fl *fleet) (err error) {
	p.data1 = fl.dataBytes()
	p.after, err = fl.scrape()
	return err
}

func (p *phaseStats) delta(name string, match ...string) float64 {
	return p.after.sum(name, match...) - p.before.sum(name, match...)
}

// hitRatio is the plan cache's hit share over the interval.
func (p *phaseStats) hitRatio() float64 {
	hits := p.delta("chronosd_plan_cache_hits_total")
	misses := p.delta("chronosd_plan_cache_misses_total")
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// gated fills the end-to-end metrics. Each time-based one is the median over
// the measured phase's slices of the slice's figure on the standard host:
// what was measured, scaled by the host's speed in that slice as the
// yardstick gave it (yardstick.go). Memory is the median slice's peak, as
// measured.
func (res *result) gated(setups []float64, wins []window) error {
	if len(wins) < 3 {
		return fmt.Errorf("the measured phase gave %d slices; --seconds is too short for medians", len(wins))
	}
	var speed, rate, p50, p99, cpu, rss, rawRate, rawP50 []float64
	for _, w := range wins {
		if w.ops == 0 || !(w.speed > 0 && w.tail > 0) {
			return fmt.Errorf("a %v slice of the measured phase completed %d operations at host speed %g", w.busy, w.ops, w.speed)
		}
		r := float64(w.ops) / w.busy.Seconds()
		speed = append(speed, w.speed)
		rawRate = append(rawRate, r)
		rawP50 = append(rawP50, float64(w.p50)/1e3)
		rate = append(rate, r/w.speed)
		p50 = append(p50, float64(w.p50)/1e3*w.speed)
		p99 = append(p99, float64(w.p99)/1e3*w.tail)
		cpu = append(cpu, float64(w.ticks)/clockTick*1e6/float64(w.ops)*w.speed)
		rss = append(rss, float64(w.rssKB)/1024)
	}
	lo, hi := speed[0], speed[0]
	for _, s := range speed {
		lo, hi = min(lo, s), max(hi, s)
	}
	res.notef("host speed by slice (reference server's ops/s over %.0f): lowest %.3f, median %.3f, highest %.3f; as measured, before scaling to the standard host: median %.0f ops/s, p50 %.1f us",
		yardstickNominal, lo, median(speed), hi, median(rawRate), median(rawP50))
	res.set("setup_s", median(setups))
	res.set("sat_ops_s", median(rate))
	res.set("sat_p50_us", median(p50))
	res.set("sat_p99_us", median(p99))
	res.set("server_cpu_us_per_op", median(cpu))
	res.set("server_peak_rss_mb", median(rss))
	return nil
}

func (res *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("benchmark reports undeclared metric " + name)
}

func (res *result) notef(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// finish folds the failure log into the result.
func (res *result) finish(failures *failureLog) {
	res.Failed += failures.count
	for _, r := range failures.reasons {
		res.notef("FAILED: %s", r)
	}
	res.Correct = res.Failed == 0
}

// hitRatioCheck is the cache-behaviour output check: plan_hot must be served
// from the cache and plan_cold must never be.
func hitRatioCheck(workload string, ratio float64, failures *failureLog) {
	switch {
	case workload == "plan_hot" && ratio < 0.999:
		failures.add(fmt.Errorf("plan_hot cache hit ratio %.5f, want >= 0.999", ratio))
	case workload == "plan_cold" && ratio > 0.001:
		failures.add(fmt.Errorf("plan_cold cache hit ratio %.5f, want <= 0.001", ratio))
	}
}

func (e *env) runServing(wl *workload, cfg runConfig, d time.Duration) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	failures := &failureLog{}
	if cfg.traced {
		return res, e.tracedServing(wl, cfg, d, res, failures)
	}
	y, err := startYardstick()
	if err != nil {
		return nil, err
	}
	defer y.stop()
	fl, setups, err := bootRuns(setupRuns, y, func() (*fleet, float64, error) { return e.boot(wl, res, failures) })
	if err != nil {
		return nil, err
	}
	defer fl.stop()

	var st phaseStats
	if err := st.begin(fl); err != nil {
		return nil, err
	}
	ph, err := measuredLoop(fl.addrs, wl.stream(0), y, d, fl.sample)
	if err != nil {
		return nil, err
	}
	if err := st.end(fl); err != nil {
		return nil, err
	}
	fl.stop()
	y.stop()
	if ph.wall < d {
		return nil, fmt.Errorf("the measured phase ended after %v of %v: the workload's stream ran out or its server went away", ph.wall, d)
	}

	verify(wl.stream(0), ph.recs[0], failures)
	if err := wl.finish(); err != nil {
		failures.add(err)
	}
	hitRatioCheck(wl.name, st.hitRatio(), failures)
	ops := countOps(ph.recs)
	res.Attempted += ops
	wins := ph.windows()
	if err := res.gated(setups, wins); err != nil {
		return nil, err
	}
	perSlice := 0
	for _, w := range wins {
		perSlice += w.n / len(wins)
	}
	res.notef("%s: %d requests by one closed-loop client in %.2fs; every figure is the median of %d slices of %v, each with about %d single-job latency samples (%d beyond its p99); cache hit ratio %.4f",
		wl.name, ops, ph.wall.Seconds(), len(wins), windowLength, perSlice, perSlice/100, st.hitRatio())
	res.finish(failures)
	return res, nil
}

// tracedServing is the diagnostic run: the closed loop without and with
// spans, Plan calls through the client package, the paced open loop, then
// every layer in-process.
func (e *env) tracedServing(wl *workload, cfg runConfig, d time.Duration, res *result, failures *failureLog) error {
	log := &spanLog{epoch: time.Now()}
	fl, _, err := e.boot(wl, res, failures)
	if err != nil {
		return err
	}
	defer fl.stop()

	streams := make([]stream, clients)
	for c := range streams {
		streams[c] = wl.stream(c)
	}
	var st phaseStats
	if err := st.begin(fl); err != nil {
		return err
	}
	plainPh, err := closedLoop(fl.addrs, streams, d/3, false)
	if err != nil {
		return err
	}
	tracedStart := time.Now()
	tracedPh, err := closedLoop(fl.addrs, streams, d/3, true)
	if err != nil {
		return err
	}
	plain, traced := plainPh.recs, tracedPh.recs
	log.addRequests("closed_loop", wl.name, tracedStart, traced)
	if err := st.end(fl); err != nil {
		return err
	}
	for c := range streams {
		v := wl.stream(c)
		verify(v, plain[c], failures)
		verify(v, traced[c], failures)
	}
	if err := wl.finish(); err != nil {
		failures.add(err)
	}
	hitRatioCheck(wl.name, st.hitRatio(), failures)
	ops := countOps(plain) + countOps(traced)
	res.Attempted += ops

	// With one client the closed loop is one client alone: what a request
	// costs with nothing queued behind it.
	aloneSingle, _ := latencies(traced)
	aloneP50 := float64(percentile(aloneSingle, 50)) / 1e3

	// The same through the client package (single-replica plan workloads).
	viaClient := 0.0
	if wl.spec.replicas == 1 {
		viaClient = clientPlanP50(fl.addrs[0], wl.sample(layerSmall), res, failures)
	}

	// The open loop.
	schedule := pacedSchedule(cfg.seed, pacedRate, d/3)
	pacedStart, pacedRecs, lag, err := paced(fl.addrs, wl.stream(clients+1), schedule)
	if err != nil {
		return err
	}
	log.addRequests("paced", wl.name, pacedStart, pacedRecs)
	pacedLat, pacedBatch := latencies(pacedRecs)
	pacedLat = append(pacedLat, pacedBatch...)
	sort.Slice(pacedLat, func(i, j int) bool { return pacedLat[i] < pacedLat[j] })
	late := 0
	for _, r := range pacedRecs {
		for i, l := range r.lat {
			if r.status[i] != 200 || l > int64(5*time.Millisecond) {
				late++
			}
			if r.status[i] != 200 {
				failures.add(fmt.Errorf("paced %s answered %d: %s", kindNames[r.kind[i]], r.status[i], r.bodies[i]))
			}
		}
	}
	res.Attempted += len(pacedLat)
	sort.Slice(lag, func(i, j int) bool { return lag[i] < lag[j] })
	fl.stop()

	lr, err := e.layers(log, wl.sample(layerSample), cfg.seed, res)
	if err != nil {
		return err
	}
	fops := float64(ops)
	requests := 0.0
	for _, ep := range []string{"/v1/plan", "/v1/admit", "/v1/admit/batch"} {
		requests += st.delta("chronosd_request_duration_seconds_sum", "endpoint", ep)
	}
	stages := 0.0
	for _, stage := range []string{"quantize", "cache", "solve", "debit", "escrow", "forward", "replay_emit"} {
		sec := st.delta("chronosd_stage_seconds_sum", "stage", stage)
		stages += sec
		res.set("server.stage_"+stage+"_us_per_op", sec*1e6/fops)
	}
	res.set("server.unaccounted_us_per_op", (requests-stages)*1e6/fops)
	res.set("server.cache_hit_ratio", st.hitRatio())
	res.set("server.singleflight_waiters", st.delta("chronosd_plan_singleflight_waiters_total"))
	res.set("server.forwarded_frac", st.delta("chronosd_ring_forwarded_total")/fops)
	res.set("server.local_fallbacks", st.delta("chronosd_ring_local_fallbacks_total"))
	res.set("server.escrow_topups", st.delta("chronosd_escrow_topups_total"))
	if admits := st.delta("chronosd_tenant_admits_total"); admits > 0 {
		res.set("tenant.wal_bytes_per_admit", float64(st.data1-st.data0)/admits)
	}
	_, batch := latencies(append(plain, traced...))
	res.set("server.batch16_p50_us", float64(percentile(batch, 50))/1e3)

	// The in-process handler figure that matches what the one client sent.
	handler := lr.out["server.plan_hit_ns"]
	switch wl.name {
	case "plan_cold":
		handler = lr.out["server.plan_miss_ns"]
	case "fleet_admit":
		handler = lr.out["server.admit_escrow_wal_ns"]
	}
	res.set("socket.one_client_p50_us", aloneP50)
	res.set("socket.overhead_us", aloneP50-handler/1e3)
	if viaClient > 0 {
		res.set("client.plan_overhead_us", viaClient-aloneP50)
	}
	res.set("socket.paced_p50_us", float64(percentile(pacedLat, 50))/1e3)
	res.set("socket.paced_p99_us", float64(percentile(pacedLat, 99))/1e3)
	res.set("socket.paced_late_frac", float64(late)/float64(max(len(pacedLat), 1)))
	res.set("socket.gen_lag_p99_us", float64(percentile(lag, 99))/1e3)

	plainRate := float64(countOps(plain)) / plainPh.wall.Seconds()
	tracedRate := float64(countOps(traced)) / tracedPh.wall.Seconds()
	res.set("bench.trace_overhead_frac", 1-tracedRate/plainRate)
	res.notef("%s traced: %.0f ops/s without spans, %.0f with; one client p50 %.1f us over %d samples; paced %d sent, %d late",
		wl.name, plainRate, tracedRate, aloneP50, len(aloneSingle), len(pacedLat), late)
	return e.finishTraced(log, res, failures)
}

// layers times every layer in-process on jobs, in a scratch directory of its
// own, and reports every per-layer metric: those it measured, and 0 for the
// ones the caller has yet to fill in from the socket phases.
func (e *env) layers(log *spanLog, jobs []chronos.JobParams, seed uint64, res *result) (*layerRun, error) {
	scratch, err := e.startFleet(fleetSpec{}) // no servers: just the directory and its clean-up
	if err != nil {
		return nil, err
	}
	defer scratch.stop()
	lr := &layerRun{log: log, out: map[string]float64{}, jobs: jobs, dir: scratch.dir}
	if err := lr.run(seed); err != nil {
		return nil, err
	}
	for _, def := range perLayer {
		res.set(def.name, lr.out[def.name])
	}
	res.set("bench.build_s", e.buildS)
	speed, err := hostSpeedNow()
	if err != nil {
		return nil, err
	}
	res.set("bench.host_speed", speed)
	return lr, nil
}

// hostSpeedNow is what a traced run reports about the host, whose figures are
// all as measured: the yardstick alone for half a second.
func hostSpeedNow() (float64, error) {
	y, err := startYardstick()
	if err != nil {
		return 0, err
	}
	defer y.stop()
	ops, busy, err := y.burst(500 * time.Millisecond)
	return hostSpeed(ops, busy), err
}

// finishTraced ends a traced run: the spans go to bench/out/trace.jsonl.
func (e *env) finishTraced(log *spanLog, res *result, failures *failureLog) error {
	res.set("bench.span_count", float64(len(log.spans)))
	res.finish(failures)
	return log.write(filepath.Join(e.root, "bench", "out", "trace.jsonl"))
}

// clientPlanP50 is the median latency, in microseconds, of client.Plan — the
// SDK a scheduler would link — called back to back for oneClientPhase.
func clientPlanP50(addr string, jobs []chronos.JobParams, res *result, failures *failureLog) float64 {
	cl := client.New("http://" + addr)
	ctx := context.Background()
	var lat []int64
	deadline := time.Now().Add(oneClientPhase)
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		_, err := cl.Plan(ctx, client.PlanRequest{Job: jobs[i%len(jobs)], Econ: planEcon})
		lat = append(lat, int64(time.Since(t0)))
		if err != nil {
			failures.add(fmt.Errorf("client.Plan: %w", err))
		}
	}
	res.Attempted += len(lat)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(percentile(lat, 50)) / 1e3
}

// runReplays is the replay_stream workload.
func (e *env) runReplays(cfg runConfig, d time.Duration) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	failures := &failureLog{}
	spec := fleetSpec{replicas: 1}
	boot := func() (*fleet, float64, error) {
		t0 := time.Now()
		fl, err := e.startFleet(spec)
		if err != nil {
			return nil, 0, err
		}
		// The warm-up is one short stream: it opens the connection and
		// pages the simulator in.
		c, err := dial(fl.addrs[0])
		if err != nil {
			fl.stop()
			return nil, 0, err
		}
		// It is the same stream for every seed, because 50 jobs are too few
		// to average their sizes out and setup_s is compared across seeds.
		warm := replayStream(0, 0)
		warm.jobs = 50
		r := runReplay(c, warm, t0)
		c.close()
		res.Attempted++
		if r.err != nil {
			failures.add(fmt.Errorf("warm-up replay: %w", r.err))
		}
		return fl, time.Since(t0).Seconds(), nil
	}
	if cfg.traced {
		fl, _, err := boot()
		if err != nil {
			return nil, err
		}
		defer fl.stop()
		return res, e.tracedReplays(fl, cfg, d, res, failures)
	}
	y, err := startYardstick()
	if err != nil {
		return nil, err
	}
	defer y.stop()
	fl, setups, err := bootRuns(setupRuns, y, boot)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	var st phaseStats
	if err := st.begin(fl); err != nil {
		return nil, err
	}
	streams, wall, err := replayLoop(fl, y, cfg.seed, 0, 3*len(replayStrategies), d)
	if err != nil {
		return nil, err
	}
	if err := st.end(fl); err != nil {
		return nil, err
	}
	fl.stop()
	y.stop()
	judgeReplays(streams, failures)
	res.Attempted += len(streams)
	wins := replayWindows(streams, st.u0.cpuTicks)
	if err := res.gated(setups, wins); err != nil {
		return nil, err
	}
	res.notef("replay_stream: %d streams of %d jobs, one after another, in %.2fs; every figure is the median of %d rotations of the %d strategies; a latency sample is a whole stream: a rotation's p50 is its mean stream and its p99 its slowest",
		len(streams), replayJobs, wall.Seconds(), len(wins), len(replayStrategies))
	res.finish(failures)
	return res, nil
}

// judgeReplays counts settled jobs, collects the sorted stream times and
// logs every stream that broke a check.
func judgeReplays(streams []replayResult, failures *failureLog) (settled int, walls []int64) {
	for i := range streams {
		r := &streams[i]
		settled += r.settled
		walls = append(walls, int64(r.wall))
		if r.err != nil {
			failures.add(fmt.Errorf("replay %v seed %d: %w", r.spec.strategy, r.spec.simSeed, r.err))
		}
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return settled, walls
}

func (e *env) tracedReplays(fl *fleet, cfg runConfig, d time.Duration, res *result, failures *failureLog) error {
	log := &spanLog{epoch: time.Now()}
	var st phaseStats
	if err := st.begin(fl); err != nil {
		return err
	}
	plain, plainWall, err := replayLoop(fl, nil, cfg.seed, 0, fidelityStreams, d/2)
	if err != nil {
		return err
	}
	tracedStart := time.Now()
	traced, tracedWall, err := replayLoop(fl, nil, cfg.seed, len(plain), len(replayStrategies), d/2)
	if err != nil {
		return err
	}
	if err := st.end(fl); err != nil {
		return err
	}
	fl.stop()
	off := int64(tracedStart.Sub(log.epoch))
	phase := log.add(span{Name: "closed_loop", Workload: "replay_stream", Due: off, Start: off, End: off + int64(tracedWall)})
	for _, r := range traced {
		s := off + int64(r.start)
		id := log.add(span{Parent: phase, Name: "replay", Workload: "replay_stream", Calls: r.settled,
			Due: s, Start: s, End: s + int64(r.wall), Status: 200})
		log.add(span{Parent: id, Name: "replay.first_event", Workload: "replay_stream",
			Due: s, Start: s, End: s + int64(r.firstEvent)})
	}
	all := append(plain, traced...)
	settled, walls := judgeReplays(all, failures)
	res.Attempted += len(all)

	shapes, err := traceShapes(layerSample, traceSeed(cfg.seed, tagReplay))
	if err != nil {
		return err
	}
	lr, err := e.layers(log, shapes, cfg.seed, res)
	if err != nil {
		return err
	}

	var pocdErr, costErr, first, bytesPerJob []float64
	for i := range all {
		r := &all[i]
		if r.err != nil {
			continue
		}
		first = append(first, r.firstEvent.Seconds()*1e3)
		bytesPerJob = append(bytesPerJob, float64(r.bytes)/float64(r.settled))
		if i < fidelityStreams {
			p, c, err := r.fidelity()
			if err != nil {
				failures.add(err)
				continue
			}
			pocdErr, costErr = append(pocdErr, p), append(costErr, c)
		}
	}
	mean := func(v []float64) float64 {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		return sum / float64(max(len(v), 1))
	}
	res.set("replay.pocd_abs_err", mean(pocdErr))
	res.set("replay.cost_rel_err", mean(costErr))
	res.set("replay.first_event_ms", median(first))
	res.set("replay.stream_bytes_per_job", median(bytesPerJob))
	fjobs := float64(settled)
	emit := st.delta("chronosd_stage_seconds_sum", "stage", "replay_emit")
	res.set("server.stage_replay_emit_us_per_op", emit*1e6/fjobs)
	res.set("server.unaccounted_us_per_op",
		(st.delta("chronosd_request_duration_seconds_sum", "endpoint", "/v1/replay")-emit)*1e6/fjobs)
	// Per stream, mean against mean because the strategies differ twofold:
	// what the socket, the flushes and this client's parsing add to an
	// in-process replay that encodes the same events.
	total := int64(0)
	for _, w := range walls {
		total += w
	}
	res.set("socket.one_client_p50_us", float64(percentile(walls, 50))/1e3)
	res.set("socket.overhead_us", float64(total)/float64(len(walls))/1e3-lr.emitStreamUs)

	rate := func(rs []replayResult, wall time.Duration) float64 {
		n := 0
		for _, r := range rs {
			n += r.settled
		}
		return float64(n) / wall.Seconds()
	}
	res.set("bench.trace_overhead_frac", 1-rate(traced, tracedWall)/rate(plain, plainWall))
	res.notef("replay_stream traced: %d streams; fidelity over the first %d: pocd_abs_err %.6f cost_rel_err %.6f",
		len(all), len(pocdErr), mean(pocdErr), mean(costErr))
	return e.finishTraced(log, res, failures)
}

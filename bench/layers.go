package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"time"

	"chronos"
	"chronos/internal/analysis"
	"chronos/internal/cluster"
	"chronos/internal/hotjson"
	"chronos/internal/metrics"
	"chronos/internal/obs"
	"chronos/internal/pareto"
	"chronos/internal/plankey"
	"chronos/internal/ring"
	"chronos/internal/server"
	"chronos/internal/sim"
	"chronos/internal/tenant"
)

// The per-layer timings call each module's public functions from here, on
// job shapes drawn the way the workload under test draws them. A function
// that takes nanoseconds is timed a batch at a time (one span per batch),
// because a clock read costs about as much as the call; the figure reported
// is the median over batches of the mean call.

const (
	layerSample = 20000 // inputs for the nanosecond-scale functions
	layerSmall  = 2000  // inputs for the microsecond-scale ones
	layerBatch  = 100   // calls per span
)

// layerRun times the layers on one workload's inputs.
type layerRun struct {
	log   *spanLog
	root  int
	out   map[string]float64
	jobs  []chronos.JobParams // layerSample inputs
	plans []chronos.Plan      // the oracle's plan per input
	dir   string              // scratch for the WAL
	// emitStreamUs is the in-process time of one replay_stream stream with
	// every event encoded, which the socket figure is compared against.
	emitStreamUs float64
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink any

// timed runs fn(0..n-1) in batches, one span per batch, and returns the
// median over batches of the mean nanoseconds per call.
//
// The collector is run first and then held off until the calls are done. The
// whole measurement takes milliseconds and a collection of this process's
// heap, which by now holds every answer the socket phases recorded, takes a
// hundred on the one CPU the benchmark runs on: whether one happened to be
// under way tripled the figure. What the calls allocate is in *_allocs.
func (l *layerRun) timed(name string, n, batch int, fn func(i int)) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	per := make([]float64, 0, n/batch+1)
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		d := time.Since(t0)
		start := int64(t0.Sub(l.log.epoch))
		l.log.add(span{Parent: l.root, Name: name, Calls: hi - lo, Due: start, Start: start, End: start + int64(d)})
		per = append(per, float64(d)/float64(hi-lo))
	}
	return median(per)
}

// mallocs returns heap allocations per call over n calls.
func mallocs(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func (l *layerRun) job(i int) chronos.JobParams { return l.jobs[i%len(l.jobs)] }

// run fills l.out with every in-process per-layer metric.
func (l *layerRun) run(seed uint64) error {
	l.root = l.log.add(span{Name: "layers", Start: int64(time.Since(l.log.epoch))})
	defer func() { l.log.spans[l.root-1].End = int64(time.Since(l.log.epoch)) }()
	l.plans = make([]chronos.Plan, layerSmall)
	for i := range l.plans {
		p, err := chronos.OptimizeBest(l.job(i), planEcon)
		if err != nil {
			return err
		}
		l.plans[i] = p
	}
	l.models()
	l.codecs()
	if err := l.ledgers(); err != nil {
		return err
	}
	l.plumbing()
	if err := l.handlers(); err != nil {
		return err
	}
	l.simulator()
	return l.replays(seed)
}

// models: analysis and optimize.
func (l *layerRun) models() {
	params := make([]analysis.Params, layerSmall)
	for i := range params {
		p := l.job(i)
		params[i] = analysis.Params{
			N: p.Tasks, Deadline: p.Deadline, Task: pareto.Dist{TMin: p.TMin, Beta: p.Beta},
			TauEst: p.TauEst, TauKill: p.TauKill,
		}
	}
	strategies := analysis.Strategies()
	var ev analysis.Evaluator
	var acc float64
	l.out["analysis.eval_ns"] = l.timed("analysis.Evaluator", layerSample, layerBatch, func(i int) {
		ev.Reset(strategies[i%len(strategies)], params[i%len(params)])
		r := 1 + i%4
		acc += ev.PoCD(r) + ev.MachineTime(r)
	})
	sink = acc

	solve := func(i int) {
		p, _ := chronos.OptimizeBest(l.job(i), planEcon)
		sink = p
	}
	l.out["optimize.solve_best_ns"] = l.timed("optimize.OptimizeBest", layerSmall, 20, solve)
	l.out["optimize.solve_allocs"] = mallocs(500, solve)

	frontiers := make([]*chronos.BudgetFrontier, 256)
	l.out["optimize.frontier_build_ns"] = l.timed("optimize.NewBudgetFrontierBest", layerSmall, 20, func(i int) {
		bf, _ := chronos.NewBudgetFrontierBest(l.job(i), planEcon)
		frontiers[i%len(frontiers)] = bf
	})
	// The frontiers left in the table belong to the last 256 inputs.
	base := layerSmall - len(frontiers)
	l.out["optimize.frontier_query_ns"] = l.timed("optimize.PlanWithinBudget", layerSample, layerBatch, func(i int) {
		j := i % len(frontiers)
		p, _ := frontiers[j].PlanWithinBudget(0.7 * l.plans[base+j].MachineTime)
		sink = p
	})
}

// codecs: plankey and hotjson.
func (l *layerRun) codecs() {
	var key []byte
	l.out["plankey.key_ns"] = l.timed("plankey.AppendKey", layerSample, layerBatch, func(i int) {
		key = plankey.AppendKey(key[:0], "", l.job(i), planEcon)
	})

	planBodies := make([][]byte, layerSmall)
	admitBodies := make([][]byte, layerSmall)
	for i := range planBodies {
		planBodies[i] = appendPlanBody(nil, l.job(i))
		admitBodies[i] = appendAdmitBody(nil, "deep", l.job(i))
	}
	var planReq hotjson.PlanRequest
	l.out["hotjson.decode_plan_ns"] = l.timed("hotjson.DecodePlanRequest", layerSample, layerBatch, func(i int) {
		_ = hotjson.DecodePlanRequest(planBodies[i%layerSmall], &planReq, nil)
	})
	var admitReq hotjson.AdmitRequest
	l.out["hotjson.decode_admit_ns"] = l.timed("hotjson.DecodeAdmitRequest", layerSample, layerBatch, func(i int) {
		_ = hotjson.DecodeAdmitRequest(admitBodies[i%layerSmall], &admitReq, nil)
	})
	var buf []byte
	planResp := hotjson.PlanResponse{Cached: true}
	l.out["hotjson.encode_plan_ns"] = l.timed("hotjson.AppendPlanResponse", layerSample, layerBatch, func(i int) {
		planResp.Plan = l.plans[i%layerSmall]
		buf, _ = hotjson.AppendPlanResponse(buf[:0], &planResp)
	})
	admitResp := hotjson.AdmitResponse{Admitted: true, Tenant: "deep", BudgetRemaining: 987654321.25}
	l.out["hotjson.encode_admit_ns"] = l.timed("hotjson.AppendAdmitResponse", layerSample, layerBatch, func(i int) {
		admitResp.Plan = &l.plans[i%layerSmall]
		buf, _ = hotjson.AppendAdmitResponse(buf[:0], &admitResp)
	})
	r, pocd := 2, 0.97
	ev := chronos.ReplayEvent{
		Kind: chronos.EventJobCompleted, Time: 123456.789, PoCD: &pocd,
		Job:     &chronos.ReplayJobEvent{Strategy: "Clone", Arrival: 120000.5, R: &r},
		Outcome: &chronos.ReplayOutcome{Finish: 123400.25, MetDeadline: true, Lateness: -31.5},
	}
	l.out["hotjson.encode_event_ns"] = l.timed("hotjson.AppendReplayEvent", layerSample, layerBatch, func(i int) {
		p := l.job(i)
		ev.Seq, ev.Job.ID, ev.Job.Tasks, ev.Job.Deadline = uint64(i), i, p.Tasks, p.Deadline
		ev.Outcome.MachineTime, ev.Outcome.Cost = l.plans[i%layerSmall].MachineTime, l.plans[i%layerSmall].Cost
		buf, _ = hotjson.AppendReplayEvent(buf[:0], &ev)
	})
}

const deepTenants = `{"tenants":[{"name":"deep","budget":1e12}]}`

// ledgers: tenant.
func (l *layerRun) ledgers() error {
	reg, err := tenant.Parse([]byte(deepTenants))
	if err != nil {
		return err
	}
	pool := reg.Get("deep")
	l.out["tenant.pool_debit_ns"] = l.timed("tenant.Pool.TryDebit", layerSample, layerBatch, func(int) {
		pool.TryDebit(1)
	})
	led := tenant.NewEscrowLedger(reg, nil, 0)
	l.out["tenant.escrow_debit_ns"] = l.timed("tenant.EscrowLedger.DebitLocal", layerSample, layerBatch, func(int) {
		led.DebitLocal("deep", 1)
	})
	store, err := tenant.OpenStore(l.dir + "/wal")
	if err != nil {
		return err
	}
	rec := tenant.Record{Op: tenant.OpDebit, Tenant: "deep", Amount: 1234.5}
	l.out["tenant.wal_append_ns"] = l.timed("tenant.Store.Append", layerSmall, 20, func(int) {
		_ = store.Append(rec) // a failed append is latched; checked below
	})
	if n, err := store.AppendFailures(); n > 0 {
		return fmt.Errorf("WAL append failed %d times: %w", n, err)
	}
	return store.Close()
}

// plumbing: ring, obs and metrics.
func (l *layerRun) plumbing() {
	keys := make([][]byte, layerSmall)
	for i := range keys {
		keys[i] = plankey.AppendKey(nil, "", l.job(i), planEcon)
	}
	rg := ring.New([]string{"http://127.0.0.1:7001", "http://127.0.0.1:7002", "http://127.0.0.1:7003"}, 0)
	l.out["ring.owner_ns"] = l.timed("ring.OwnerBytes", layerSample, layerBatch, func(i int) {
		sink, _ = rg.OwnerBytes(keys[i%layerSmall])
	})

	var snap *obs.Snapshot
	l.out["obs.trace_ns"] = l.timed("obs.Trace", layerSample, layerBatch, func(int) {
		tr := obs.NewTrace("", "/v1/plan")
		tr.Observe(obs.StageQuantize, 300)
		tr.Observe(obs.StageCache, 200)
		tr.Observe(obs.StageSolve, 4000)
		tr.Observe(obs.StageDebit, 100)
		snap = tr.Finish(200, 25*time.Microsecond, "", false)
	})
	logger := obs.NewLogger(io.Discard, slog.LevelInfo, 1)
	l.out["obs.request_log_ns"] = l.timed("obs.Logger.Request", layerSample, layerBatch, func(int) {
		logger.Request(snap)
	})
	hist := metrics.NewLatencyHistogram()
	l.out["metrics.observe_ns"] = l.timed("metrics.LatencyHistogram.Observe", layerSample, layerBatch, func(i int) {
		hist.Observe(float64(i%1000) * 1e-6)
	})
}

// memWriter and memBody are the reusable in-memory ends of an in-process
// request.
type memWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *memWriter) Header() http.Header  { return w.header }
func (w *memWriter) WriteHeader(code int) { w.code = code }
func (w *memWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

type memBody struct {
	data []byte
	off  int
}

func (b *memBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *memBody) Close() error { return nil }

// inproc drives one server's routed handler (mux and middleware included)
// without a socket.
type inproc struct {
	h    http.Handler
	w    memWriter
	body memBody
	reqs map[string]*http.Request
}

func newInproc(srv *server.Server) *inproc {
	return &inproc{h: srv.Handler(), w: memWriter{header: http.Header{}}, reqs: map[string]*http.Request{}}
}

func (p *inproc) post(path string, body []byte) int {
	req := p.reqs[path]
	if req == nil {
		req = &http.Request{
			Method: "POST", URL: &url.URL{Path: path}, Host: "chronosd",
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{"Content-Type": {"application/json"}},
		}
		p.reqs[path] = req
	}
	p.body = memBody{data: body}
	req.Body = &p.body // the middleware wraps it anew on every call
	req.ContentLength = int64(len(body))
	p.w.code, p.w.body = 200, p.w.body[:0]
	p.h.ServeHTTP(&p.w, req)
	return p.w.code
}

// handlers: internal/server, through Handler().ServeHTTP. The servers log
// every request as JSON the way a default chronosd does, into io.Discard.
func (l *layerRun) handlers() error {
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	// Distinct shapes among the sample, for warm and cold passes.
	var distinct [][]byte
	var admits, batches [][]byte
	seen := map[string]bool{}
	for i := 0; i < len(l.jobs) && len(distinct) < layerSmall; i++ {
		key := plankey.Key("", l.jobs[i], planEcon)
		if seen[key] {
			continue
		}
		seen[key] = true
		distinct = append(distinct, appendPlanBody(nil, l.jobs[i]))
		admits = append(admits, appendAdmitBody(nil, "deep", l.jobs[i]))
	}
	for i := 0; i+batchJobs <= len(l.jobs) && len(batches) < 256; i += batchJobs {
		batches = append(batches, appendBatchBody(nil, "deep", l.jobs[i:i+batchJobs]))
	}
	hot := distinct[:min(len(distinct), hotShapes)]
	failed := 0
	measure := func(name string, p *inproc, path string, bodies [][]byte, n, batch int, before func(i int)) {
		call := func(i int) {
			if before != nil {
				before(i)
			}
			if p.post(path, bodies[i%len(bodies)]) != 200 {
				failed++
			}
		}
		for i := range bodies { // warm every cache cell and pool
			call(i)
		}
		l.out["server."+name+"_ns"] = l.timed("server."+name, n, batch, call)
		l.out["server."+name+"_allocs"] = mallocs(500, call)
	}

	plain := server.New(server.Config{Logger: logger})
	p := newInproc(plain)
	measure("plan_hit", p, "/v1/plan", hot, layerSample, layerBatch, nil)
	measure("plan_miss", p, "/v1/plan", distinct, layerSmall, 20, func(i int) {
		if i%len(distinct) == 0 {
			plain.FlushCache() // every pass over the distinct shapes starts cold
		}
	})
	plain.Close()

	reg, err := tenant.Parse([]byte(deepTenants))
	if err != nil {
		return err
	}
	pooled := server.New(server.Config{Logger: logger, Tenants: reg})
	p = newInproc(pooled)
	measure("admit", p, "/v1/admit", admits[:len(hot)], layerSample, layerBatch, nil)
	measure("admit_batch16", p, "/v1/admit/batch", batches, layerSmall, 20, nil)
	pooled.Close()

	reg, err = tenant.Parse([]byte(deepTenants))
	if err != nil {
		return err
	}
	store, err := tenant.OpenStore(l.dir + "/escrow")
	if err != nil {
		return err
	}
	durable := server.New(server.Config{Logger: logger, Tenants: reg, Escrow: true, Store: store})
	p = newInproc(durable)
	measure("admit_escrow_wal", p, "/v1/admit", admits[:len(hot)], layerSample/4, layerBatch, nil)
	durable.Close()
	if err := store.Close(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d in-process requests were not answered 200", failed)
	}
	shared := l.out["hotjson.decode_plan_ns"] + l.out["plankey.key_ns"] + l.out["hotjson.encode_plan_ns"]
	l.out["server.self_hit_ns"] = l.out["server.plan_hit_ns"] - shared
	l.out["server.self_miss_ns"] = l.out["server.plan_miss_ns"] - shared - l.out["optimize.solve_best_ns"]
	return nil
}

// simulator: sim and cluster.
func (l *layerRun) simulator() {
	const events = 100000
	noop := func() {}
	round := func() {
		eng := sim.NewEngine()
		for i := 0; i < events; i++ {
			eng.Schedule(float64((i*7919)%events), noop)
		}
		eng.Run()
	}
	// Ten rounds of 100 000 events: 1e6 in all, one span per round.
	l.out["sim.event_ns"] = l.timed("sim.Engine", 10, 1, func(int) { round() }) / events
	l.out["sim.event_allocs"] = mallocs(1, func(int) { round() }) / events

	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 256, SlotsPerNode: 8})
	if err != nil {
		panic(err) // a constant, valid configuration
	}
	l.out["cluster.alloc_release_ns"] = l.timed("cluster.Allocate+Release", layerSample, layerBatch, func(int) {
		ctr, _ := cl.Allocate()
		cl.Release(ctr)
	})
}

// replays: mapreduce, speculate, replay and trace, through chronos.Replay on
// the traces replay_stream's first streams use.
func (l *layerRun) replays(seed uint64) error {
	t0 := time.Now()
	big, err := chronos.SyntheticTrace(chronos.TraceConfig{Jobs: layerSample, Seed: traceSeed(seed, tagReplay)})
	if err != nil {
		return err
	}
	l.out["trace.generate_ns_per_job"] = float64(time.Since(t0)) / float64(len(big))

	ctx := context.Background()
	replay := func(name string, spec replaySpec, strategy chronos.Strategy, obs chronos.ReplayObserver) (time.Duration, int, float64, error) {
		jobs, err := chronos.SyntheticTrace(spec.traceConfig())
		if err != nil {
			return 0, 0, 0, err
		}
		tasks := 0
		for _, j := range jobs {
			tasks += j.Tasks
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		_, err = chronos.Replay(ctx, chronos.SimConfig{Strategy: strategy, Seed: spec.simSeed}, jobs,
			chronos.ReplayOptions{Observer: obs})
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		start := int64(t0.Sub(l.log.epoch))
		l.log.add(span{Parent: l.root, Name: name, Calls: tasks, Due: start, Start: start, End: start + int64(d)})
		return d, tasks, float64(after.Mallocs-before.Mallocs) / float64(len(jobs)), err
	}

	d, tasks, _, err := replay("mapreduce.Replay[Hadoop-NS]", replayStream(seed, 0), chronos.HadoopNS, nil)
	if err != nil {
		return err
	}
	l.out["mapreduce.task_ns"] = float64(d) / float64(tasks)

	var bare, emitting time.Duration
	var allocs, builds []float64
	for k, short := range []string{"clone", "restart", "resume"} {
		spec := replayStream(seed, k)
		d, tasks, _, err := replay("speculate.Replay["+short+"]", spec, spec.strategy, nil)
		if err != nil {
			return err
		}
		l.out["speculate.task_ns."+short] = float64(d) / float64(tasks)
		bare += d

		var buf []byte
		var first time.Duration
		begin := time.Now()
		d, _, a, err := replay("replay.emit["+short+"]", spec, spec.strategy, chronos.ReplayObserverFunc(func(ev *chronos.ReplayEvent) error {
			if first == 0 {
				first = time.Since(begin)
			}
			var err error
			buf, err = hotjson.AppendReplayEvent(buf[:0], ev)
			return err
		}))
		if err != nil {
			return err
		}
		emitting += d
		allocs = append(allocs, a)
		builds = append(builds, first.Seconds()*1e3)
	}
	l.out["replay.run_jobs_s"] = 3 * replayJobs / bare.Seconds()
	l.out["replay.emit_jobs_s"] = 3 * replayJobs / emitting.Seconds()
	l.emitStreamUs = emitting.Seconds() * 1e6 / 3
	l.out["replay.allocs_per_job"] = median(allocs)
	l.out["replay.build_ms"] = median(builds)
	return nil
}

package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"chronos"
	"chronos/internal/plankey"
)

// Workload shape. These are the benchmark's fixed sizes; README.md says why
// each has the value it has.
const (
	clients = 1 // closed-loop clients in every gated phase

	hotShapes    = 1024 // distinct jobs of plan_hot; all fit chronosd's 4096-entry cache
	zipfExponent = 1.1  // popularity skew of plan_hot
	fleetShapes  = 512  // distinct jobs of fleet_admit
	fleetSize    = 3    // replicas of fleet_admit
	batchJobs    = 16   // jobs per /v1/admit/batch
	tightBlock   = 4096 // consecutive ops per client that share one tight tenant

	replayJobs    = 500   // jobs per /v1/replay stream
	replaySpacing = 200.0 // mean seconds between arrivals: the in-flight-task cap is never hit

	pacedRate = 2000.0 // requests per second of the open-loop diagnostic phase
)

// planEcon is the economics every request plans under. It equals the tenant
// defaults, so an admit and a plan for the same job share one cache entry.
var planEcon = chronos.Econ{Theta: 1e-4, UnitPrice: 1}

const econJSON = `{"theta":0.0001,"unitPrice":1}`

// opKind names what one request does.
type opKind uint8

const (
	opPlan opKind = iota
	opAdmitDeep
	opAdmitTight
	opAdmitBatch
	opReplay
	numKinds
)

var kindNames = [numKinds]string{"plan", "admit_deep", "admit_tight", "admit_batch16", "replay"}

// fleetPattern is the fixed 16-op cycle of fleet_admit: 10 deep admits, 2
// tight admits, 3 plans, 1 batch of 16 deep admits.
var fleetPattern = [16]opKind{
	opAdmitDeep, opAdmitDeep, opAdmitDeep, opPlan,
	opAdmitDeep, opAdmitDeep, opAdmitTight, opAdmitDeep,
	opAdmitDeep, opPlan, opAdmitDeep, opAdmitDeep,
	opAdmitBatch, opAdmitDeep, opAdmitTight, opPlan,
}

// Stream tags keep the random streams of different workloads and purposes
// apart under one seed.
const (
	tagHot uint64 = iota + 1
	tagCold
	tagFleet
	tagReplay
	tagPaced
)

// traceSeed derives a SyntheticTrace seed; never 0, which the generator
// reads as "use the default seed".
func traceSeed(seed, tag uint64) uint64 { return (seed+1)*1_000_003 + tag }

func newRand(seed, tag uint64, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, tag<<8|uint64(client)))
}

// traceShapes draws n job shapes from chronos.SyntheticTrace's Google-like
// mix (tasks log-uniform 5-2000, tmin 15-50 s, beta 1.1-1.9, deadline twice
// the mean task time) with the control instants the replay defaults use
// (0.3 and 0.6 of tmin). Shapes whose plan key repeats an earlier one are
// dropped, so every shape returned is unique after plankey quantisation.
func traceShapes(n int, seed uint64) ([]chronos.JobParams, error) {
	jobs, err := chronos.SyntheticTrace(chronos.TraceConfig{Jobs: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	shapes := make([]chronos.JobParams, 0, n)
	seen := make(map[string]struct{}, n)
	var key []byte
	for _, j := range jobs {
		p := jobParams(j)
		key = plankey.AppendKey(key[:0], "", p, planEcon)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		shapes = append(shapes, p)
	}
	return shapes, nil
}

// jobParams is the analytic view of one trace job, as chronos.Replay's
// default configuration plans it.
func jobParams(j chronos.SimJob) chronos.JobParams {
	return chronos.JobParams{
		Tasks: j.Tasks, Deadline: j.Deadline, TMin: j.TMin, Beta: j.Beta,
		TauEst: 0.3 * j.TMin, TauKill: 0.6 * j.TMin,
	}
}

// appendJob writes a job as JSON. 'g' with precision -1 is the shortest
// text that parses back to the same float64, so the server plans exactly
// the numbers the benchmark's oracle does.
func appendJob(dst []byte, p chronos.JobParams) []byte {
	dst = append(dst, `{"tasks":`...)
	dst = strconv.AppendInt(dst, int64(p.Tasks), 10)
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"deadline", p.Deadline}, {"tmin", p.TMin}, {"beta", p.Beta}, {"tauEst", p.TauEst}, {"tauKill", p.TauKill}} {
		dst = append(dst, `,"`...)
		dst = append(dst, f.name...)
		dst = append(dst, `":`...)
		dst = strconv.AppendFloat(dst, f.v, 'g', -1, 64)
	}
	return append(dst, '}')
}

func appendPlanBody(dst []byte, p chronos.JobParams) []byte {
	dst = append(dst, `{"job":`...)
	dst = appendJob(dst, p)
	dst = append(dst, `,"econ":`...)
	dst = append(dst, econJSON...)
	return append(dst, '}')
}

func appendAdmitBody(dst []byte, tenant string, p chronos.JobParams) []byte {
	dst = append(dst, `{"tenant":"`...)
	dst = append(dst, tenant...)
	dst = append(dst, `","job":`...)
	dst = appendJob(dst, p)
	return append(dst, '}')
}

func appendBatchBody(dst []byte, tenant string, jobs []chronos.JobParams) []byte {
	dst = append(dst, `{"tenant":"`...)
	dst = append(dst, tenant...)
	dst = append(dst, `","jobs":[`...)
	for i, p := range jobs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"job":`...)
		dst = appendJob(dst, p)
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}

// replayStrategies is the rotation of replay_stream.
var replayStrategies = [3]chronos.Strategy{chronos.Clone, chronos.SpeculativeRestart, chronos.SpeculativeResume}

// replaySpec is the k-th stream of replay_stream.
type replaySpec struct {
	strategy  chronos.Strategy
	simSeed   uint64
	traceSeed uint64
	jobs      int
}

func replayStream(seed uint64, k int) replaySpec {
	return replaySpec{
		strategy:  replayStrategies[k%len(replayStrategies)],
		simSeed:   seed + uint64(k) + 1,
		traceSeed: traceSeed(seed, tagReplay) + uint64(k),
		jobs:      replayJobs,
	}
}

func (r replaySpec) traceConfig() chronos.TraceConfig {
	return chronos.TraceConfig{Jobs: r.jobs, HorizonSeconds: replaySpacing * float64(r.jobs), Seed: r.traceSeed}
}

func (r replaySpec) body() []byte {
	return []byte(fmt.Sprintf(
		`{"config":{"strategy":%q,"seed":%d},"trace":{"jobs":%d,"horizonSeconds":%g,"seed":%d}}`,
		r.strategy.String(), r.simSeed, r.jobs, replaySpacing*float64(r.jobs), r.traceSeed))
}

// pacedSchedule is the open-loop arrival schedule: Poisson arrivals at rate
// per second for d, as offsets from the phase start.
func pacedSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := newRand(seed, tagPaced, 0)
	var due []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		t := time.Duration(at * float64(time.Second))
		if t >= d {
			return due
		}
		due = append(due, t)
	}
}

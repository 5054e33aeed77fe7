package chronos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"chronos/internal/analysis"
	"chronos/internal/mapreduce"
	"chronos/internal/optimize"
	"chronos/internal/pareto"
	"chronos/internal/speculate"
	"chronos/internal/trace"
	"chronos/internal/workload"
)

// SimJob is one job of a simulated stream.
type SimJob struct {
	// Tasks is the number of parallel map tasks.
	Tasks int `json:"tasks"`
	// Deadline is the job deadline in seconds after arrival.
	Deadline float64 `json:"deadline"`
	// TMin and Beta parameterize the Pareto attempt execution times.
	TMin float64 `json:"tmin"`
	Beta float64 `json:"beta"`
	// Arrival is the submission time (seconds from simulation start).
	Arrival float64 `json:"arrival,omitempty"`
	// UnitPrice is the per-machine-second VM price; 0 means 1.
	UnitPrice float64 `json:"unitPrice,omitempty"`
	// ReduceTasks optionally adds a reduce stage gated on map completion;
	// 0 means a map-only job.
	ReduceTasks int `json:"reduceTasks,omitempty"`
	// ReduceTMin and ReduceBeta parameterize reduce-task times; zeros
	// inherit the map-stage values.
	ReduceTMin float64 `json:"reduceTMin,omitempty"`
	ReduceBeta float64 `json:"reduceBeta,omitempty"`
}

// TauScale selects how SimConfig's TauEst/TauKill are interpreted.
type TauScale int

// Tau interpretation modes.
const (
	// TauOfTMin (default): tau values are multiples of each job's TMin,
	// the convention of the paper's Tables I and II.
	TauOfTMin TauScale = iota
	// TauAbsolute: tau values are absolute seconds after job arrival, the
	// convention of the paper's testbed experiments (40 s / 80 s).
	TauAbsolute
)

// SimConfig shapes one simulation run.
type SimConfig struct {
	// Strategy is the speculation policy driving every job.
	Strategy Strategy `json:"strategy"`
	// Nodes and SlotsPerNode size the cluster; zero means 256 x 8. Only
	// their product, the number of container slots, is simulated: in the
	// paper's model an attempt's duration is its own draw wherever it runs,
	// so no placement of containers on nodes could change a result.
	Nodes        int `json:"nodes,omitempty"`
	SlotsPerNode int `json:"slotsPerNode,omitempty"`
	// Seed makes the run reproducible; equal seeds give identical runs and
	// common random numbers across strategies.
	Seed uint64 `json:"seed,omitempty"`
	// TauEst and TauKill position the Chronos control instants, scaled per
	// TauScale. Zero values default to 0.3 and 0.6 of tmin.
	TauEst  float64 `json:"tauEst,omitempty"`
	TauKill float64 `json:"tauKill,omitempty"`
	// TauScale selects the interpretation of TauEst/TauKill.
	TauScale TauScale `json:"tauScale,omitempty"`
	// Econ drives the per-job optimizer and the reported utility. A zero
	// value defaults to theta=1e-4, price 1, rmin 0.
	Econ Econ `json:"econ,omitempty"`
	// FixedR bypasses the optimizer when >= 0 (ablations). Default: use
	// the optimizer (any negative value, and 0 value is distinguished via
	// UseFixedR).
	FixedR int `json:"fixedR,omitempty"`
	// UseFixedR enables FixedR (so that FixedR == 0 is expressible).
	UseFixedR bool `json:"useFixedR,omitempty"`
	// JVMMin and JVMMax bound the attempt startup delay; zeros mean 1-3 s.
	JVMMin float64 `json:"jvmMin,omitempty"`
	JVMMax float64 `json:"jvmMax,omitempty"`
	// UseHadoopEstimator makes the Chronos strategies predict completion
	// times with Hadoop's default (JVM-oblivious) estimator instead of the
	// paper's Eq. 30. Exists for the estimator ablation: it re-creates the
	// false-positive straggler detections the paper fixes.
	UseHadoopEstimator bool `json:"useHadoopEstimator,omitempty"`
	// ReportInterval, when > 0, restricts the AM to periodic progress
	// reports instead of continuous exact observation (as in real Hadoop).
	ReportInterval float64 `json:"reportInterval,omitempty"`
	// ReportNoise adds relative Gaussian error to each report (e.g. 0.1);
	// meaningful only with ReportInterval > 0.
	ReportNoise float64 `json:"reportNoise,omitempty"`
}

// UnmarshalJSON decodes the config strictly: a key SimConfig does not have
// is an error rather than silently ignored, so a misspelt knob never runs a
// simulation without it.
func (cfg *SimConfig) UnmarshalJSON(data []byte) error {
	type plain SimConfig // no methods: decodes without recursing here
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	p := plain(*cfg)
	if err := dec.Decode(&p); err != nil {
		return err // bare: request decoders prefix their own context
	}
	*cfg = SimConfig(p)
	return nil
}

// Report summarizes one simulation run.
type Report struct {
	// Jobs is the number of jobs simulated.
	Jobs int `json:"jobs"`
	// PoCD is the fraction of jobs meeting their deadline.
	PoCD float64 `json:"pocd"`
	// MeanMachineTime and MeanCost are per-job averages.
	MeanMachineTime float64 `json:"meanMachineTime"`
	MeanCost        float64 `json:"meanCost"`
	// Utility is the measured net utility under the run's Econ.
	Utility float64 `json:"utility"`
	// RHistogram counts the optimizer-chosen r values (empty for
	// baselines).
	RHistogram map[int]int `json:"rHistogram,omitempty"`
}

// Simulate executes the job stream under the configured strategy on the
// discrete-event cluster and reports PoCD, cost, and utility. It is a
// one-shot fold over the streaming replay core (see Replay): every event is
// aggregated and only the final report returned.
func Simulate(cfg SimConfig, jobs []SimJob) (Report, error) {
	return SimulateContext(context.Background(), cfg, jobs)
}

// SimulateContext is Simulate with cancellation: the run stops between
// simulation events when ctx is cancelled and returns ctx's error.
func SimulateContext(ctx context.Context, cfg SimConfig, jobs []SimJob) (Report, error) {
	if len(jobs) == 0 {
		return Report{}, fmt.Errorf("chronos: no jobs to simulate")
	}
	return Replay(ctx, cfg, jobs, ReplayOptions{})
}

// withDefaults fills zero values.
func (cfg SimConfig) withDefaults() SimConfig {
	if cfg.Nodes == 0 {
		cfg.Nodes = 256
	}
	if cfg.SlotsPerNode == 0 {
		cfg.SlotsPerNode = 8
	}
	if cfg.TauEst == 0 && cfg.TauKill == 0 {
		cfg.TauEst, cfg.TauKill = 0.3, 0.6
		cfg.TauScale = TauOfTMin
	}
	if cfg.Econ == (Econ{}) {
		cfg.Econ = Econ{Theta: 1e-4, UnitPrice: 1}
	}
	if cfg.JVMMin == 0 && cfg.JVMMax == 0 {
		cfg.JVMMin, cfg.JVMMax = 1, 3
	}
	return cfg
}

// spec converts a SimJob to the internal job description. A tail index at or
// below 1 is rejected by the planner's own rule: the mean is infinite there,
// and sampled task times run to where sums leave float64.
func (j SimJob) spec(id int, cfg SimConfig) (mapreduce.JobSpec, error) {
	dist, err := pareto.New(j.TMin, j.Beta)
	if err != nil {
		return mapreduce.JobSpec{}, err
	}
	if j.Beta <= 1 {
		return mapreduce.JobSpec{}, fmt.Errorf("%w: beta=%v", analysis.ErrHeavyTail, j.Beta)
	}
	price := j.UnitPrice
	if price == 0 {
		price = cfg.Econ.UnitPrice
	}
	spec := mapreduce.JobSpec{
		ID:        id,
		Name:      "sim",
		NumTasks:  j.Tasks,
		Deadline:  j.Deadline,
		Dist:      dist,
		JVM:       mapreduce.JVMModel{Min: cfg.JVMMin, Max: cfg.JVMMax},
		UnitPrice: price,
		Arrival:   j.Arrival,
	}
	if j.ReduceTasks > 0 {
		rtmin, rbeta := j.ReduceTMin, j.ReduceBeta
		if rtmin == 0 {
			rtmin = j.TMin
		}
		if rbeta == 0 {
			rbeta = j.Beta
		}
		rdist, err := pareto.New(rtmin, rbeta)
		if err != nil {
			return mapreduce.JobSpec{}, err
		}
		if rbeta <= 1 {
			return mapreduce.JobSpec{}, fmt.Errorf("%w: reduceBeta=%v", analysis.ErrHeavyTail, rbeta)
		}
		spec.Reduce = mapreduce.ReduceSpec{
			NumTasks: j.ReduceTasks,
			Dist:     rdist,
		}
	}
	return spec, nil
}

// maxFixedR bounds SimConfig.FixedR: r+1 attempts of every task are launched,
// and no optimizer-chosen r can reach the planner's search cap
// (optimize.ErrSearchCap), so no fixed one needs to.
const maxFixedR = 1 << 13

// maxEcon caps econ.theta, econ.unitPrice and every job's unitPrice at the
// planner's cap. Inside it, and inside the serving bounds on
// tasks, attempts and task times, no cost or utility a run reports leaves
// float64.
const maxEcon = optimize.MaxEcon

// validate rejects, once per run and before any event, what a run cannot be
// built from or reported on. A control instant in the past of its stage would
// be scheduled before the simulation clock. A negative price or theta makes
// cost negative or spending a gain, and a non-finite or uncapped one makes an
// infinity no encoder can write. cfg must already have defaults.
func (cfg SimConfig) validate(jobs []SimJob) error {
	if !(cfg.TauEst >= 0 && cfg.TauKill >= 0) || math.IsInf(cfg.TauEst, 0) || math.IsInf(cfg.TauKill, 0) {
		return fmt.Errorf("chronos: tauEst %v and tauKill %v must be finite and non-negative", cfg.TauEst, cfg.TauKill)
	}
	if cfg.TauScale != TauOfTMin && cfg.TauScale != TauAbsolute {
		return fmt.Errorf("chronos: unknown tauScale %d", cfg.TauScale)
	}
	if cfg.UseFixedR && cfg.FixedR >= maxFixedR {
		return fmt.Errorf("chronos: fixedR %d at or above the planner's search cap r = %d", cfg.FixedR, maxFixedR)
	}
	for _, c := range [...]struct {
		name string
		v    float64
	}{{"econ.theta", cfg.Econ.Theta}, {"econ.unitPrice", cfg.Econ.UnitPrice}} {
		if !inEconRange(c.v) {
			return econRangeError(c.name, c.v)
		}
	}
	for i, j := range jobs {
		if !inEconRange(j.UnitPrice) {
			return econRangeError(fmt.Sprintf("job %d unitPrice", i), j.UnitPrice)
		}
	}
	return nil
}

// inEconRange reports whether a price or theta lies in [0, maxEcon]; NaN
// does not.
func inEconRange(v float64) bool { return v >= 0 && v <= maxEcon }

func econRangeError(name string, v float64) error {
	return fmt.Errorf("chronos: %s %v must be in [0, %g]", name, v, float64(maxEcon))
}

// strategyFor instantiates the policy for one job (tau instants may be
// job-relative).
func (cfg SimConfig) strategyFor(j SimJob) (mapreduce.Strategy, error) {
	switch cfg.Strategy {
	case HadoopNS:
		return speculate.HadoopNS{}, nil
	case HadoopS:
		return speculate.HadoopS{}, nil
	case Mantri:
		return speculate.Mantri{}, nil
	}
	kind, err := analyticKind(cfg.Strategy)
	if err != nil {
		return nil, fmt.Errorf("chronos: unknown strategy %d", cfg.Strategy)
	}
	tauEst, tauKill := cfg.TauEst, cfg.TauKill
	if cfg.TauScale == TauOfTMin {
		tauEst *= j.TMin
		tauKill *= j.TMin
	}
	fixedR := -1
	if cfg.UseFixedR {
		fixedR = cfg.FixedR
	}
	ccfg := speculate.ChronosConfig{
		TauEst:  tauEst,
		TauKill: tauKill,
		Opt:     optimize.Config(cfg.Econ),
		FixedR:  fixedR,
	}
	if cfg.UseHadoopEstimator {
		ccfg.Estimator = mapreduce.HadoopEstimator
	}
	return speculate.Chronos{Kind: kind, Config: ccfg}, nil
}

// Benchmark is a public view of one of the paper's testbed workloads.
type Benchmark struct {
	// Name is the benchmark name (Sort, SecondarySort, TeraSort,
	// WordCount).
	Name string
	// TMin and Beta describe the calibrated map-task time distribution.
	TMin, Beta float64
	// Deadline is the paper's deadline for the benchmark.
	Deadline float64
	// CPUBound distinguishes compute- from I/O-dominated benchmarks.
	CPUBound bool
}

// Benchmarks returns the four Figure 2 workloads.
func Benchmarks() []Benchmark {
	profs := workload.Profiles()
	out := make([]Benchmark, len(profs))
	for i, p := range profs {
		out[i] = Benchmark{
			Name:     p.Name,
			TMin:     p.Dist.TMin,
			Beta:     p.Dist.Beta,
			Deadline: p.Deadline,
			CPUBound: p.Class == workload.CPUBound,
		}
	}
	return out
}

// Jobs expands a benchmark into a stream of n identical jobs with the given
// task count, spaced spacing seconds apart.
func (b Benchmark) Jobs(n, tasks int, spacing float64) []SimJob {
	jobs := make([]SimJob, n)
	for i := range jobs {
		jobs[i] = SimJob{
			Tasks:    tasks,
			Deadline: b.Deadline,
			TMin:     b.TMin,
			Beta:     b.Beta,
			Arrival:  float64(i) * spacing,
		}
	}
	return jobs
}

// TraceConfig shapes a synthetic Google-like trace (see internal/trace for
// the substitution rationale). Its JSON form is the "trace" member of a
// POST /v1/replay body.
type TraceConfig struct {
	// Jobs and HorizonSeconds size the trace (paper: 2700 jobs / 30 h).
	Jobs           int     `json:"jobs"`
	HorizonSeconds float64 `json:"horizonSeconds,omitempty"`
	// DeadlineRatio sets each job's deadline to ratio x mean task time.
	DeadlineRatio float64 `json:"deadlineRatio,omitempty"`
	// Seed drives the generation.
	Seed uint64 `json:"seed,omitempty"`
}

// SyntheticTrace generates a Google-trace-like job stream ready for
// Simulate.
func SyntheticTrace(cfg TraceConfig) ([]SimJob, error) {
	gen := trace.DefaultGeneratorConfig()
	if cfg.Jobs > 0 {
		gen.Jobs = cfg.Jobs
	}
	if cfg.HorizonSeconds > 0 {
		gen.Horizon = cfg.HorizonSeconds
	}
	if cfg.DeadlineRatio > 0 {
		gen.DeadlineRatio = cfg.DeadlineRatio
	}
	if cfg.Seed != 0 {
		gen.Seed = cfg.Seed
	}
	records, err := trace.Generate(gen)
	if err != nil {
		return nil, err
	}
	jobs := make([]SimJob, len(records))
	for i, r := range records {
		jobs[i] = SimJob{
			Tasks:    r.NumTasks,
			Deadline: r.Deadline,
			TMin:     r.Dist.TMin,
			Beta:     r.Dist.Beta,
			Arrival:  r.Arrival,
		}
	}
	return jobs, nil
}

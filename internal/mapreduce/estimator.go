package mapreduce

import "math"

// Estimator predicts the absolute completion instant of a running attempt
// from its observable progress reports. Strategies use estimators both to
// detect stragglers at tauEst and to pick the surviving attempt at tauKill.
//
// Estimators see only what the AM sees: the latest progress Observation
// (continuous and exact by default; periodic and optionally noisy when the
// runtime is configured with ReportInterval/ReportNoise).
type Estimator func(a *Attempt, now float64) float64

// HadoopEstimator reproduces default Hadoop's completion-time estimate: it
// assumes the attempt has been processing since launch, so
//
//	tect = tlau + (tobs - tlau) / ownProgress.
//
// Because the elapsed time includes the JVM startup delay, the implied rate
// is too low and the estimate overshoots — the source of the false-positive
// straggler detections the paper fixes with Eq. 30.
func HadoopEstimator(a *Attempt, now float64) float64 {
	if a.State == AttemptFinished {
		return a.EndTime
	}
	obs := a.Observe(now)
	if !obs.Valid {
		return math.Inf(1) // no progress report yet
	}
	return a.LaunchTime + (obs.At-a.LaunchTime)/obs.Progress
}

// ChronosEstimator implements Eq. 30 of the paper: the JVM launch time is
// measured as tFP - tlau (first progress report minus launch) and excluded
// from the processing-rate estimate:
//
//	tect = tlau + (tFP - tlau) + (tobs - tFP) * (1 - FP) / (CP - FP)
//
// where FP and CP are the first and current reported progress. With map
// attempts starting from FP = 0 this is exactly the published Eq. 30; the
// (1 - FP) factor generalizes it to resumed attempts whose first report is
// already non-zero. Under continuous observation it is exact for
// linear-progress attempts. With periodic noisy reports it extrapolates from
// two instants only — JVM-ready and the latest report — so one noisy report
// moves the estimate by its full error and earlier reports never average it
// out (ROADMAP item 1(c): on wide jobs that decides which copy survives
// tauKill).
func ChronosEstimator(a *Attempt, now float64) float64 {
	if a.State == AttemptFinished {
		return a.EndTime
	}
	tFP := a.JVMReady()
	obs := a.Observe(now)
	if !obs.Valid || obs.At <= tFP {
		return math.Inf(1) // no usable report yet
	}
	fp := 0.0 // attempts report their own-range progress, starting at 0
	cp := obs.Progress
	if cp <= fp {
		return math.Inf(1)
	}
	return tFP + (obs.At-tFP)*(1-fp)/(cp-fp)
}

// OracleEstimator returns the true finish time; used in tests and to bound
// the achievable accuracy of the practical estimators.
func OracleEstimator(a *Attempt, now float64) float64 {
	if a.State == AttemptFinished {
		return a.EndTime
	}
	return a.FinishTime()
}

// AnticipatedResumeFrac implements the speculative-launch offset of Eq. 31:
// when Speculative-Resume decides at tauEst to replace a straggler, the new
// attempts should skip not only the bytes already processed (best) but also
// the bytes the original would process while the new JVMs start up
// (bextra), estimated from the original's observed rate and startup delay:
//
//	bextra = best / (tauEst - tFP) * (tFP - tlau)
//	bnew   = bstart + best + bextra.
//
// The return value is the split fraction at which the new attempts begin.
// It is clamped to [current progress, 1].
func AnticipatedResumeFrac(a *Attempt, now float64) float64 {
	progress := a.Progress(now)
	tFP := a.JVMReady()
	obs := a.Observe(now)
	if !obs.Valid || obs.At <= tFP {
		return progress
	}
	// Observed fraction of this attempt's own range, converted to split
	// fraction.
	processedFrac := obs.Progress * (1 - a.StartFrac)
	rate := processedFrac / (obs.At - tFP)
	extra := rate * a.JVMDelay // fraction processed during the new attempt's startup
	frac := a.StartFrac + processedFrac + extra
	if frac > 1 {
		frac = 1
	}
	if frac < progress {
		frac = progress
	}
	return frac
}

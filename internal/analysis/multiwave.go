package analysis

import (
	"fmt"
	"math"
)

// Multi-wave execution — the paper's stated future work ("Multi-wave
// executions will be considered in our future work") — arises when a job's
// N tasks exceed the S container slots available to it: tasks run in
// W = ceil(N/S) sequential waves, and the deadline budget must be divided
// across waves.
//
// WaveModel approximates a multi-wave job by planning each wave as an
// independent sub-job of at most S tasks with deadline D/W, which is exact
// when waves are synchronized (every wave starts when the previous one
// finishes) and conservative otherwise: real waves overlap because slots
// free up task by task, so the true PoCD is at least the model's.

// WaveModel wraps the single-wave closed forms with slot-limited waves.
type WaveModel struct {
	// Inner is the single-wave evaluator; its Params.N must be the job's
	// total task count.
	Inner *Evaluator
	// Slots is the number of containers available to the job per wave.
	// Clone-style strategies consume (r+1) slots per task, which the model
	// accounts for in WavesAtR.
	Slots int
}

// NewWaveModel validates and builds the wave wrapper.
func NewWaveModel(inner *Evaluator, slots int) (WaveModel, error) {
	if slots < 1 {
		return WaveModel{}, fmt.Errorf("analysis: wave model needs slots >= 1, got %d", slots)
	}
	return WaveModel{Inner: inner, Slots: slots}, nil
}

// WavesAtR returns the number of sequential waves needed when every task
// runs r+1 parallel attempts: ceil(N*(r+1) / Slots), at least 1.
func (w WaveModel) WavesAtR(r int) int {
	n := w.Inner.Params().N * (r + 1)
	waves := (n + w.Slots - 1) / w.Slots
	if waves < 1 {
		waves = 1
	}
	return waves
}

// waveParams shrinks the inner params to one wave: tasksInWave tasks and a
// deadline slice D/waves, with the tau instants scaled by the same factor so
// the control points stay proportionally placed within the wave.
func (w WaveModel) waveParams(waves int) Params {
	p := w.Inner.Params()
	scale := 1 / float64(waves)
	p.Deadline *= scale
	p.TauEst *= scale
	p.TauKill *= scale
	return p
}

// PoCD returns the synchronized-wave approximation: the job meets its
// deadline if every wave finishes within its D/W slice. Tasks are split as
// evenly as possible across waves; since per-task misses are i.i.d., the
// product over waves equals the full-N single-wave formula evaluated at the
// sliced deadline.
func (w WaveModel) PoCD(r int) float64 {
	waves := w.WavesAtR(r)
	if waves == 1 {
		return w.Inner.PoCD(r)
	}
	p := w.waveParams(waves)
	if p.Deadline <= p.Task.TMin || p.TauKill > p.Deadline {
		return 0 // a wave slice below tmin cannot complete in time
	}
	var e Evaluator
	e.Reset(w.Inner.Strategy(), p)
	return e.PoCD(r)
}

// MachineTime returns the expected machine time across waves. Machine time
// is additive over tasks and unaffected by wave scheduling, except that the
// tau-dependent terms use the per-wave control instants.
func (w WaveModel) MachineTime(r int) float64 {
	waves := w.WavesAtR(r)
	if waves == 1 {
		return w.Inner.MachineTime(r)
	}
	p := w.waveParams(waves)
	if p.Deadline <= p.Task.TMin {
		// Degenerate slice: fall back to the unsliced cost (tasks still
		// run; they just miss the deadline).
		return w.Inner.MachineTime(r)
	}
	var e Evaluator
	e.Reset(w.Inner.Strategy(), p)
	return e.MachineTime(r)
}

// Name implements Model.
func (w WaveModel) Name() string {
	return w.Inner.Name() + " (multi-wave)"
}

// Params implements Model, exposing the inner single-wave parameters.
func (w WaveModel) Params() Params { return w.Inner.Params() }

// Gamma implements Model: the concavity threshold of the wave-sliced
// problem is conservative — use the maximum over the wave counts reachable
// for small r, falling back to the inner threshold.
func (w WaveModel) Gamma() float64 {
	gamma := w.Inner.Gamma()
	// Wave slicing shrinks the deadline, which can only raise the
	// threshold; probe the first few r values.
	var e Evaluator
	for r := 0; r <= 8; r++ {
		waves := w.WavesAtR(r)
		if waves == 1 {
			continue
		}
		p := w.waveParams(waves)
		if p.Deadline <= p.Task.TMin || p.TauKill > p.Deadline {
			continue
		}
		e.Reset(w.Inner.Strategy(), p)
		if g := e.Gamma(); g > gamma {
			gamma = g
		}
	}
	return gamma
}

var _ Model = WaveModel{}

// SlotsForWaves returns the minimum slot allocation that keeps the job at
// the given wave count for attempts-per-task a = r+1; useful for capacity
// planning ("how many containers keep this job single-wave?").
func SlotsForWaves(n, r, waves int) int {
	if waves < 1 {
		waves = 1
	}
	total := n * (r + 1)
	return int(math.Ceil(float64(total) / float64(waves)))
}

package mapreduce

import "chronos/internal/sim"

// Strategy is a per-job speculation policy. The runtime calls Start at the
// job's arrival; the strategy launches the original attempts, schedules its
// own control points (tauEst, tauKill, periodic checks), and reacts to task
// completions through the Controller hooks.
type Strategy interface {
	// Name identifies the strategy in metrics and reports.
	Name() string
	// Start begins executing the job: launch attempts and schedule control
	// events via ctl.
	Start(ctl *Controller)
}

// Controller is the strategy's handle on one job's execution. It scopes
// runtime operations to the job and carries the strategy's event hooks.
type Controller struct {
	rt  *Runtime
	job *Job

	taskDone     func(*Task)
	jobDone      func()
	mapStageDone func()
}

// Job returns the controlled job.
func (c *Controller) Job() *Job { return c.job }

// Now returns the current simulation time.
func (c *Controller) Now() float64 { return c.rt.Eng.Now() }

// Launch starts a new attempt of the task from the given split fraction
// (0 for a from-scratch attempt) and returns it. The attempt may wait for a
// container. The task must not be Done. The returned *Attempt is valid until
// its task settles (it is Done and none of its attempts is queued or
// running) and the next Submit runs; then the runtime reuses the record.
func (c *Controller) Launch(t *Task, startFrac float64) *Attempt {
	return c.rt.launch(t, startFrac)
}

// Kill terminates an attempt. Killing a finished or already-killed attempt
// is a no-op; the return value reports whether the attempt was live.
func (c *Controller) Kill(a *Attempt) bool { return c.rt.kill(a) }

// After schedules fn delay seconds from now; the timer is cancellable.
func (c *Controller) After(delay float64, fn func()) sim.Timer {
	return c.rt.Eng.After(delay, c.whileOpen(fn))
}

// whileOpen makes a control point do nothing once its job has settled: by
// then every task is done and no attempt is live, so there is nothing left
// for a strategy to decide, and the tasks its closure captured may already
// belong to another job (the runtime takes them back at the next Submit).
// The event still fires, so the engine's clock and event count do not depend
// on it.
func (c *Controller) whileOpen(fn func()) func() {
	return func() {
		if !c.job.settled {
			fn()
		}
	}
}

// OnTaskDone registers a hook invoked whenever one of the job's tasks
// completes.
func (c *Controller) OnTaskDone(fn func(*Task)) { c.taskDone = fn }

// OnJobDone registers a hook invoked when the job's last task completes,
// e.g. to cancel outstanding control timers.
func (c *Controller) OnJobDone(fn func()) { c.jobDone = fn }

// OnMapStageDone registers a hook invoked when the last map task completes.
// Strategies with reduce stages launch and plan the reduce tasks here; the
// hook fires before reduce tasks become launchable events are processed,
// within the same simulation instant.
func (c *Controller) OnMapStageDone(fn func()) { c.mapStageDone = fn }

// FreeSlots reports the cluster's currently free container slots; Mantri's
// launch rule consults this.
func (c *Controller) FreeSlots() int {
	return c.rt.Cluster.Capacity() - c.rt.Cluster.InUse()
}

// QueueEmpty reports whether no allocation requests are waiting — Mantri
// only speculates when no (new) task is waiting for a container.
func (c *Controller) QueueEmpty() bool { return c.rt.Cluster.QueueLength() == 0 }

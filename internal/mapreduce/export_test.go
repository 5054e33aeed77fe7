package mapreduce

// FreeAttempts reports how many attempt records the runtime's pool holds.
func (rt *Runtime) FreeAttempts() int { return len(rt.freeAttempts) }

// Launched reports how many attempts were ever launched for the task.
func (t *Task) Launched() int { return t.nextAttempt }

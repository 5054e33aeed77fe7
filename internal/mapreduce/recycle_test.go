package mapreduce

import (
	"reflect"
	"testing"
	"unsafe"

	"chronos/internal/cluster"
	"chronos/internal/pareto"
	"chronos/internal/sim"
)

// dirty sets every zero field of the struct v points to, exported or not, to
// a non-zero value, leaving set fields as they are.
func dirty(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		if !f.IsZero() {
			continue
		}
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Float64:
			f.SetFloat(1)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Struct:
			dirty(t, f)
		default:
			t.Fatalf("dirty: no non-zero value for field %s of kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestRecycledRecordsStartFresh: Submit and launch reset a pooled Task or
// Attempt field by field, and a reused record must equal the composite
// literal a fresh one is given, whatever its last job left in it. A field
// added to either struct and missed by the reset fails here.
func TestRecycledRecordsStartFresh(t *testing.T) {
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 1, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	rt := NewRuntime(eng, cl, Config{Seed: seed})
	spec := testSpec()
	spec.NumTasks = 2
	spec.Reduce = ReduceSpec{NumTasks: 1, Dist: pareto.MustNew(5, 1.5)}

	// The first job's attempts are granted at once or queue (two slots for
	// four attempts), start from zero or resume, finish or are killed
	// running or queued, in both stages.
	first, err := rt.Submit(spec, hookStrategy{onStart: func(ctl *Controller) {
		for _, task := range ctl.Job().MapTasks() {
			ctl.Launch(task, 0)
			ctl.Launch(task, 0.25)
		}
		ctl.After(1, func() {
			for _, task := range ctl.Job().MapTasks() {
				ctl.Kill(task.Attempts[1])
			}
		})
		ctl.OnMapStageDone(func() {
			for _, task := range ctl.Job().ReduceTasks() {
				ctl.Launch(task, 0)
			}
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !first.Done || first.liveAttempts != 0 {
		t.Fatalf("first job done=%v with %d live attempts, want settled", first.Done, first.liveAttempts)
	}
	// What settlement always leaves zero — the released container, the
	// ticket of an attempt granted at once, task 0's ID — is dirtied too.
	tasks := map[*Task]bool{}
	attempts := map[*Attempt]bool{}
	for _, task := range first.Tasks {
		tasks[task] = true
		for _, a := range task.Attempts {
			attempts[a] = true
			dirty(t, reflect.ValueOf(a).Elem())
		}
		dirty(t, reflect.ValueOf(task).Elem())
	}

	// Both slots held, so every attempt of the second job stays queued: its
	// record is what launch left, with the ticket RequestFor returned.
	for range 2 {
		if _, err := cl.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	spec.ID, spec.Arrival = 2, eng.Now()+1
	launched := 0
	second, err := rt.Submit(spec, hookStrategy{onStart: func(ctl *Controller) {
		for len(attempts) > launched {
			task := ctl.Job().Tasks[launched%spec.NumTasks]
			index, now := len(task.Attempts), ctl.Now()
			a := ctl.Launch(task, 0.5)
			launched++
			if !attempts[a] {
				t.Fatalf("launch %d got a record the first job did not use", launched)
			}
			want := Attempt{Task: task, Index: index, State: AttemptQueued, RequestTime: now,
				StartFrac: 0.5, ticket: a.ticket}
			if a.ticket == 0 || !reflect.DeepEqual(*a, want) {
				t.Errorf("recycled attempt %+v, want %+v", *a, want)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range second.Tasks {
		if !tasks[task] {
			t.Fatalf("task %d is not a record the first job used", i)
		}
		stage := StageMap
		if i >= spec.NumTasks {
			stage = StageReduce
		}
		want := Task{Job: second, ID: i, Stage: stage, Attempts: task.Attempts[:0],
			Duration: 0, durationIndex: 0, live: 0,
			streamPrefix: pareto.DeriveSeed(seed, uint64(spec.ID), uint64(i))}
		if !reflect.DeepEqual(*task, want) {
			t.Errorf("recycled task %+v, want %+v", *task, want)
		}
	}
	eng.Run()
	if launched != len(attempts) {
		t.Errorf("second job launched %d attempts, want %d", launched, len(attempts))
	}
}

// TestSettledTaskReturnsAttemptsBeforeItsJob: a task that is done with no
// live attempt gives its attempt records back at the next Submit, while its
// job is still open. The Submit empties its Attempts, keeps its Duration, and
// the next launch reuses the record.
func TestSettledTaskReturnsAttemptsBeforeItsJob(t *testing.T) {
	eng, _, rt := newHarness(t, Config{Seed: 6})
	spec := testSpec()
	spec.NumTasks = 2
	spec.Dist = pareto.MustNew(10, 1e6) // every attempt runs ≈ 2 + 10 s
	// Task 0 runs over [0, 12]; task 1 starts only at 20, so the job is
	// open when the second job arrives at 15.
	first, err := rt.Submit(spec, hookStrategy{onStart: func(ctl *Controller) {
		ctl.Launch(ctl.Job().Tasks[0], 0)
		ctl.After(20, func() { ctl.Launch(ctl.Job().Tasks[1], 0) })
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(14)
	settled := first.Tasks[0]
	if !settled.Done || settled.NumActive() != 0 || len(settled.Attempts) != 1 {
		t.Fatalf("setup: task 0 done %v with %d live of %d attempts, want done with 0 live of 1",
			settled.Done, settled.NumActive(), len(settled.Attempts))
	}
	old, duration := settled.Attempts[0], settled.Duration

	spec.ID, spec.Arrival = 2, 15
	var reused *Attempt
	eng.Schedule(15, func() {
		if _, err := rt.Submit(spec, hookStrategy{onStart: func(ctl *Controller) {
			reused = ctl.Launch(ctl.Job().Tasks[0], 0)
		}}); err != nil {
			t.Error(err)
		}
		if first.Done || first.Tasks == nil {
			t.Errorf("first job done %v, tasks %v at the second Submit, want it open", first.Done, first.Tasks)
		}
		if len(settled.Attempts) != 0 {
			t.Errorf("settled task kept %d attempts past Submit, want 0", len(settled.Attempts))
		}
		if settled.Duration != duration {
			t.Errorf("settled task Duration %v after Submit, want %v", settled.Duration, duration)
		}
	})
	eng.Run()
	if reused != old {
		t.Error("the second job's first launch did not reuse the settled task's attempt")
	}
	if !first.Done {
		t.Error("first job did not finish after the second Submit")
	}
}

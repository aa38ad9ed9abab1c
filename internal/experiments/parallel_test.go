package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkerCount(t *testing.T) {
	cases := []struct {
		requested, tasks, wantMax, wantMin int
	}{
		{4, 10, 4, 4},     // honored
		{8, 3, 3, 3},      // clamped to task count
		{0, 2, 2, 1},      // default: GOMAXPROCS, clamped
		{-1, 100, 100, 1}, // negative treated as default
	}
	for _, c := range cases {
		got := workerCount(c.requested, c.tasks)
		if got < c.wantMin || got > c.wantMax {
			t.Errorf("workerCount(%d, %d) = %d, want in [%d, %d]",
				c.requested, c.tasks, got, c.wantMin, c.wantMax)
		}
	}
}

func TestParallelDoRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		var ran [40]atomic.Bool
		tasks := make([]func(int) error, len(ran))
		for i := range tasks {
			i := i
			tasks[i] = func(int) error { ran[i].Store(true); return nil }
		}
		if err := parallelDo(workers, tasks...); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

func TestParallelDoFirstErrorByTaskOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	var done sync.WaitGroup
	done.Add(1)
	tasks := []func(int) error{
		func(int) error { done.Wait(); return errA },       // finishes last
		func(int) error { defer done.Done(); return errB }, // fails first in time
		func(int) error { return nil },
	}
	if err := parallelDo(3, tasks...); err != errA {
		t.Errorf("err = %v, want first error in task order (%v)", err, errA)
	}
	// Later tasks still run after an earlier failure.
	var ran atomic.Bool
	err := parallelDo(1,
		func(int) error { return fmt.Errorf("boom") },
		func(int) error { ran.Store(true); return nil },
	)
	if err == nil || !ran.Load() {
		t.Errorf("err=%v ran=%v, want error surfaced and all tasks run", err, ran.Load())
	}
}

func TestParallelDoNoTasks(t *testing.T) {
	if err := parallelDo(4); err != nil {
		t.Errorf("no tasks returned %v", err)
	}
}

// TestParallelDoSharesProcessors pins the budget rule: the pool takes the
// processors first and every task is told what is left for it.
func TestParallelDoSharesProcessors(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	cases := []struct{ workers, tasks, want int }{
		{1, 3, 4}, // one at a time: the whole machine
		{2, 3, 2},
		{0, 8, 1}, // default pool fills the machine
		{0, 2, 2}, // pool clamped to the task count
		{16, 16, 1},
	}
	for _, c := range cases {
		got := make([]int, c.tasks)
		tasks := make([]func(int) error, c.tasks)
		for i := range tasks {
			i := i
			tasks[i] = func(procs int) error { got[i] = procs; return nil }
		}
		if err := parallelDo(c.workers, tasks...); err != nil {
			t.Fatal(err)
		}
		for i, p := range got {
			if p != c.want {
				t.Errorf("workers=%d tasks=%d: task %d got %d processors, want %d", c.workers, c.tasks, i, p, c.want)
			}
		}
	}
}

package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"pplivesim/internal/core"
)

// Scenario runs are embarrassingly parallel: every engine is single-threaded
// and self-contained (own event queue, own RNG, own underlay), so fanning
// runs out over OS threads changes wall time but not one bit of any result.
// parallelDo is the one concurrency primitive the package uses — everything
// above it (Fig6 days, ablation pairs, the popular/unpopular warm-up) stays
// deterministic because each task writes only to its own pre-allocated slot.

// workerCount resolves a worker-pool size: requested if positive, otherwise
// GOMAXPROCS, always clamped to the number of tasks.
func workerCount(requested, tasks int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(1, min(requested, tasks))
}

// parallelDo runs the tasks over a bounded worker pool and waits for all of
// them. Every task runs regardless of other tasks' failures; the returned
// error is the first failure in task order, so error reporting is
// deterministic even though completion order is not.
//
// Each task is told its share of the processors, GOMAXPROCS divided by the
// pool size and at least 1, and hands it to runScenario as the bound on its
// simulation's event-loop workers. Running scenarios side by side is the
// cheaper parallelism (no barriers), so it gets the processors first; a
// second event-loop worker inside a simulation whose sibling already
// occupies the other core has nothing to run on, and waiting at the window
// barrier it only takes cycles from the sibling (quick-scale fig6 on 2
// cores, five runs each: 41–49 s and 80–96 CPU-s with two workers in each of
// two concurrent simulations, 34–36 s and 58–62 CPU-s with one). The rule
// fits tasks of similar length, which keep the pool full until the end;
// Runner.Warm, whose two tasks differ sixfold, exempts the long one.
func parallelDo(workers int, tasks ...func(procs int) error) error {
	workers = workerCount(workers, len(tasks))
	procs := max(1, runtime.GOMAXPROCS(0)/workers)
	errs := make([]error, len(tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = tasks[i](procs)
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runAll runs the scenarios over the Runner's worker pool and returns their
// outputs in scenario order. progress, when non-nil, is called with a
// scenario's name just before it runs — one call at a time, so it needs no
// locking of its own.
func (r *Runner) runAll(scenarios []core.Scenario, progress func(scenario string)) ([]*RunOutputs, error) {
	var progressMu sync.Mutex
	outs := make([]*RunOutputs, len(scenarios))
	tasks := make([]func(int) error, len(scenarios))
	for i, sc := range scenarios {
		tasks[i] = func(procs int) error {
			if progress != nil {
				progressMu.Lock()
				progress(sc.Name)
				progressMu.Unlock()
			}
			out, err := runScenario(sc, procs)
			if err != nil {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
			outs[i] = out
			return nil
		}
	}
	if err := parallelDo(r.Workers, tasks...); err != nil {
		return nil, err
	}
	return outs, nil
}

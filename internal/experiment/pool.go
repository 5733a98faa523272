package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves an Options.Parallelism value: zero or negative means one
// worker per CPU, anything else is used as-is.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.NumCPU()
	}
	return parallelism
}

// innerParallelism divides a worker budget among n concurrently running
// tasks, so a fan-out of n Analyze calls hands each call its fair share of
// cores for the rtree inner loops (a single call keeps the whole budget).
func innerParallelism(workers, n int) int {
	if n < 1 {
		n = 1
	}
	if n > workers {
		return 1
	}
	return workers / n
}

// fanOut runs fn for every index in [0, n) on opt's worker budget and
// returns the results in index order. Each call gets inner, a copy of opt
// whose Parallelism is the call's innerParallelism share, so the fan-out
// as a whole stays within the budget. ctx cancels the fan-out and reaches
// each call; errors follow forEach (lowest index wins).
func fanOut[T any](ctx context.Context, opt Options, n int, fn func(ctx context.Context, i int, inner Options) (T, error)) ([]T, error) {
	workers := Workers(opt.Parallelism)
	inner := opt
	inner.Parallelism = innerParallelism(workers, n)
	out := make([]T, n)
	err := forEach(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i, inner)
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEach runs fn(i) for every i in [0, n) on at most `workers` concurrent
// goroutines. Indices are claimed in ascending order; the first error
// cancels the pool's context so unclaimed work is skipped, and the error
// returned is the one with the lowest index — exactly the error a serial
// loop over the same work would have returned, because every index below a
// failing one has already been claimed and runs to completion.
//
// parent (nil means context.Background()) bounds the whole pool: when it is
// cancelled, unclaimed indices are skipped, in-flight fn calls observe the
// cancellation through their ctx argument, and forEach returns the parent's
// error unless an fn error with a lower index claims precedence.
//
// Result ordering is the caller's: fn writes into its own slot of a
// pre-sized slice, so output order never depends on completion order.
func forEach(parent context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if parent == nil {
		parent = context.Background()
	}
	if n == 0 {
		return parent.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := parent.Err(); err != nil {
				return err
			}
			if err := fn(parent, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check before claiming: a claimed index always runs, so
				// every index below a failing one completes.
				select {
				case <-ctx.Done():
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(ctx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return parent.Err()
}

// progressGate serializes completion callbacks so they fire in index order
// even when the underlying work completes out of order: worker i reports
// done(i), and emit runs for every prefix index whose work has finished.
type progressGate struct {
	mu    sync.Mutex
	ready []bool
	next  int
	emit  func(i int)
}

func newProgressGate(n int, emit func(i int)) *progressGate {
	return &progressGate{ready: make([]bool, n), emit: emit}
}

// done marks index i complete and flushes the contiguous ready prefix. emit
// runs under the gate's lock, so callbacks never interleave.
func (g *progressGate) done(i int) {
	if g == nil || g.emit == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ready[i] = true
	for g.next < len(g.ready) && g.ready[g.next] {
		g.emit(g.next)
		g.next++
	}
}

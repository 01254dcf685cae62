// Package robust provides the panic-safety and error-collection
// plumbing shared by the repo's goroutine fan-outs. A worker pool built
// directly on sync.WaitGroup has a fatal failure mode in a long-running
// service: one panicking worker kills the whole process (and, if the
// panic fires before wg.Done, deadlocks every sibling waiting on
// wg.Wait). Workers converts panics into errors and guarantees the pool
// always drains, so callers can degrade gracefully instead of aborting.
package robust

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError wraps a recovered panic value with the goroutine stack at
// the recovery point, so a crash inside a worker surfaces with enough
// context to debug while the process keeps running.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack is available via the field
// for loggers that want it.
func (e *PanicError) Error() string {
	return fmt.Sprintf("worker panic: %v", e.Value)
}

// Workers runs fn(0..n-1) on n goroutines and waits for all of them.
// A panic inside fn is recovered into a *PanicError instead of killing
// the process, and every worker always reaches completion accounting,
// so Workers never deadlocks. The returned error joins all worker
// failures (errors.Is/As see each one); it is nil when every worker
// succeeds.
func Workers(n int, fn func(worker int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		// Run inline but with the same panic containment as the
		// concurrent path.
		return protect(0, fn)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = protect(i, fn)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// WorkersCtx is Workers with cooperative cancellation: every worker
// receives a context derived from ctx that is cancelled as soon as any
// sibling returns a non-nil error (or panics), so long fan-outs — a
// corpus build, a batch relabel — stop pulling new work the moment one
// worker trips an abort condition instead of running the queue dry.
// Panics are contained exactly as in Workers. The returned error joins
// every worker failure; when the parent ctx was cancelled, ctx.Err() is
// included in the join so callers can errors.Is it.
func WorkersCtx(ctx context.Context, n int, fn func(ctx context.Context, worker int) error) error {
	if n <= 0 {
		return nil
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = protect(i, func(i int) error { return fn(wctx, i) })
			if errs[i] != nil {
				cancel() // wave siblings off new work
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// protect invokes fn(i) converting panics to errors.
func protect(i int, fn func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

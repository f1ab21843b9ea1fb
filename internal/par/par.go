// Package par provides the one worker-pool shape the whole system
// schedules on: N independent index-addressed tasks pulled from a
// shared counter by a bounded set of goroutines, with results collected
// by index so every caller stays deterministic under any schedule.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on up to workers goroutines
// pulling indices from a shared counter. Callers collect results by
// index, which keeps output ordering — and therefore answers —
// independent of the schedule. With workers <= 1 (or n <= 1) it
// degenerates to a plain serial loop.
//
// On failure the error with the smallest index among the executed calls
// is returned and remaining indices are abandoned. A panic in a worker
// goroutine abandons the remaining indices too, and the first one
// recovered is re-raised in the calling goroutine once every worker has
// returned, as a *WorkerPanic carrying the worker's stack, so the
// caller's own recover (or net/http's) sees it.
func For(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		errIdx   = n
		firstErr error
		panicked *WorkerPanic
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					wp, nested := r.(*WorkerPanic)
					if !nested {
						wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
					}
					mu.Lock()
					if panicked == nil {
						panicked = wp
					}
					mu.Unlock()
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}

// WorkerPanic is the value For re-raises for a panic in one of its
// worker goroutines: the recovered value and the worker's stack at the
// panic, which the re-raise in the calling goroutine would otherwise
// lose. A panic already wrapped by a nested For is passed on as is.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic: %v\n\n%s", p.Value, p.Stack)
}

// Unwrap returns the recovered value when it is an error, so errors.As
// finds a typed panic value through the wrapper.
func (p *WorkerPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

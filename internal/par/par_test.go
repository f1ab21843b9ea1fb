package par

import (
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var sum atomic.Int64
		if err := For(workers, 100, func(i int) error { sum.Add(int64(i)); return nil }); err != nil {
			t.Fatal(err)
		}
		if sum.Load() != 4950 {
			t.Errorf("workers=%d: sum %d", workers, sum.Load())
		}
	}
}

func TestForReturnsSmallestIndexError(t *testing.T) {
	want := errors.New("index 0")
	err := For(1, 10, func(i int) error {
		if i == 0 {
			return want
		}
		return errors.New("later")
	})
	if err != want {
		t.Errorf("err = %v", err)
	}
}

// TestForReraisesWorkerPanic: a panic in a worker goroutine reaches the
// caller's recover instead of killing the process, wrapped with the
// worker's stack so the frame that panicked is not lost.
func TestForReraisesWorkerPanic(t *testing.T) {
	type boom struct{ i int }
	for _, workers := range []int{2, 8} {
		func() {
			defer func() {
				wp, ok := recover().(*WorkerPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *WorkerPanic", workers, wp)
				}
				if r, ok := wp.Value.(boom); !ok || r.i != 5 {
					t.Errorf("workers=%d: value %v, want boom{5}", workers, wp.Value)
				}
				if !strings.Contains(string(wp.Stack), "panicAt") {
					t.Errorf("workers=%d: stack lacks the panicking frame:\n%s", workers, wp.Stack)
				}
			}()
			_ = For(workers, 16, func(i int) error {
				panicAt(i, 5, boom{i})
				return nil
			})
			t.Errorf("workers=%d: For returned after a worker panic", workers)
		}()
	}
}

//go:noinline
func panicAt(i, at int, v any) {
	if i == at {
		panic(v)
	}
}

// TestWorkerPanicUnwrapsErrors: an error panic value stays reachable
// through errors.As, and a nested For passes the inner wrapper on.
func TestWorkerPanicUnwrapsErrors(t *testing.T) {
	inner := &os.PathError{Op: "read", Path: "chunk", Err: errors.New("crc")}
	defer func() {
		wp, ok := recover().(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", wp)
		}
		if wp.Value != error(inner) {
			t.Errorf("nested For re-wrapped the panic: value %v", wp.Value)
		}
		var pe *os.PathError
		if !errors.As(wp, &pe) || pe != inner {
			t.Errorf("errors.As did not find the panic value")
		}
	}()
	_ = For(2, 4, func(i int) error {
		return For(2, 4, func(j int) error {
			panicAt(i+j, 3, inner)
			return nil
		})
	})
	t.Error("For returned after a nested worker panic")
}

package robust

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersAllSucceed(t *testing.T) {
	var ran atomic.Int64
	if err := Workers(8, func(w int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("ran %d workers, want 8", ran.Load())
	}
}

func TestWorkersRecoversPanic(t *testing.T) {
	var ran atomic.Int64
	err := Workers(4, func(w int) error {
		ran.Add(1)
		if w == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	var pe *PanicError
	ok := errors.As(err, &pe)
	if !ok {
		t.Fatalf("error %v is not a PanicError", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("panic value %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "pool_test") {
		t.Fatal("panic stack not captured")
	}
	// Siblings of the panicking worker must still have run: no deadlock,
	// no early abort.
	if ran.Load() != 4 {
		t.Fatalf("ran %d workers, want 4", ran.Load())
	}
}

func TestWorkersCollectsAllErrors(t *testing.T) {
	sentinel := errors.New("sentinel")
	err := Workers(3, func(w int) error {
		if w == 0 {
			return fmt.Errorf("w0: %w", sentinel)
		}
		if w == 2 {
			panic("late")
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("joined error lost the plain error: %v", err)
	}
	if !errors.As(err, new(*PanicError)) {
		t.Fatalf("joined error lost the panic: %v", err)
	}
}

func TestWorkersSingleInlineStillRecovers(t *testing.T) {
	err := Workers(1, func(w int) error { panic(42) })
	var pe *PanicError
	ok := errors.As(err, &pe)
	if !ok || pe.Value != 42 {
		t.Fatalf("inline worker panic not recovered: %v", err)
	}
}

func TestWorkersZeroIsNoop(t *testing.T) {
	if err := Workers(0, func(w int) error { panic("never") }); err != nil {
		t.Fatal(err)
	}
}

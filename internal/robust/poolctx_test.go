package robust

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersCtxAllSucceed(t *testing.T) {
	var ran atomic.Int32
	err := WorkersCtx(context.Background(), 4, func(ctx context.Context, w int) error {
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 4 {
		t.Fatalf("err=%v ran=%d", err, ran.Load())
	}
}

func TestWorkersCtxCancelsSiblingsOnError(t *testing.T) {
	boom := errors.New("boom")
	var waved atomic.Int32
	err := WorkersCtx(context.Background(), 3, func(ctx context.Context, w int) error {
		if w == 0 {
			return boom
		}
		// Siblings park on the derived context; the failing worker must
		// wave them off, or this blocks until the 5s guard trips.
		select {
		case <-ctx.Done():
			waved.Add(1)
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return errors.New("sibling never cancelled")
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if waved.Load() != 2 {
		t.Fatalf("waved off %d siblings, want 2", waved.Load())
	}
}

func TestWorkersCtxPanicCancelsSiblings(t *testing.T) {
	err := WorkersCtx(context.Background(), 2, func(ctx context.Context, w int) error {
		if w == 0 {
			panic("worker down")
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.As(err, new(*PanicError)) {
		t.Fatalf("err = %v, want contained panic", err)
	}
}

func TestWorkersCtxParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := WorkersCtx(ctx, 2, func(ctx context.Context, w int) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWorkersCtxZeroIsNoop(t *testing.T) {
	if err := WorkersCtx(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
}

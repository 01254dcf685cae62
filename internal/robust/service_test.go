package robust

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(4, 100, nil)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if err := p.Submit(func() { n.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if panics := p.Close(); panics != 0 {
		t.Fatalf("unexpected panics: %d", panics)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolContainsPanics(t *testing.T) {
	var reported atomic.Int64
	p := NewPool(2, 20, func(pe *PanicError) {
		if pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Errorf("bad panic report: %+v", pe)
		}
		reported.Add(1)
	})
	var ok atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		if err := p.Submit(func() {
			if i%4 == 0 {
				panic("boom")
			}
			ok.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	panics := p.Close()
	if panics != 5 || reported.Load() != 5 {
		t.Fatalf("panics=%d reported=%d, want 5/5", panics, reported.Load())
	}
	if ok.Load() != 15 {
		t.Fatalf("workers died: only %d healthy tasks ran, want 15", ok.Load())
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(1, 0, nil)
	p.Close()
	if err := p.Submit(func() {}); err != ErrPoolClosed {
		t.Fatalf("got %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// TestPoolSubmitFullSheds pins the non-blocking contract: with the one
// worker held and the queue at capacity, Submit refuses at once and the
// refused task never runs.
func TestPoolSubmitFullSheds(t *testing.T) {
	p := NewPool(1, 1, nil)
	running, hold := make(chan struct{}), make(chan struct{})
	if err := p.Submit(func() { close(running); <-hold }); err != nil {
		t.Fatal(err)
	}
	<-running
	var ran atomic.Int64
	if err := p.Submit(func() { ran.Add(1) }); err != nil {
		t.Fatalf("queue slot refused: %v", err)
	}
	if err := p.Submit(func() { ran.Add(10) }); err != ErrPoolFull {
		t.Fatalf("got %v, want ErrPoolFull", err)
	}
	if st := p.Stats(); st.Submitted != 2 || st.Queued != 1 {
		t.Fatalf("stats %+v, want 2 submitted, 1 queued", st)
	}
	close(hold)
	p.Close()
	if ran.Load() != 1 {
		t.Fatalf("ran = %d, want only the accepted task (1)", ran.Load())
	}
}

// TestPoolCloseDrains submits slow tasks and checks Close waits for all
// of them, racing Submit and Close from separate goroutines.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(3, 16, nil)
	var done atomic.Int64
	var submitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := p.Submit(func() {
					time.Sleep(time.Microsecond)
					done.Add(1)
				})
				if err == ErrPoolClosed {
					return
				}
				if err == ErrPoolFull {
					continue
				}
				submitted.Add(1)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	p.Close()
	wg.Wait()
	if done.Load() != submitted.Load() {
		t.Fatalf("Close returned with %d/%d tasks done", done.Load(), submitted.Load())
	}
}

package robust

import (
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed reports a Submit against a pool that has been Closed.
var ErrPoolClosed = errors.New("robust: pool closed")

// ErrPoolFull reports a Submit refused because the task queue was at
// capacity; the task was not accepted and will never run.
var ErrPoolFull = errors.New("robust: pool queue full")

// Pool is a long-lived panic-safe worker pool for services: a fixed set
// of goroutines executing submitted tasks, where a panicking task is
// contained to that task instead of killing the process or the worker.
// The scoped fan-out helper (Workers) covers batch jobs that start and
// finish together; Pool covers the serving case — workers that must
// outlive any individual request and absorb poison inputs indefinitely.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup

	mu     sync.RWMutex // guards closed against concurrent Submit/Close
	closed bool

	submitted atomic.Uint64
	completed atomic.Uint64
	panics    atomic.Uint64
	onPanic   func(*PanicError)
}

// PoolStats is a point-in-time view of a pool's lifetime accounting —
// the numbers an observability layer exports as pool health.
type PoolStats struct {
	// Submitted counts tasks accepted by Submit.
	Submitted uint64
	// Completed counts tasks that finished running (panicked tasks
	// included — containment is completion).
	Completed uint64
	// Panics counts contained task panics.
	Panics uint64
	// Queued is the number of tasks currently waiting for a worker.
	Queued int
}

// Stats returns the pool's current counters. Safe for concurrent use;
// the fields are individually atomic, not a consistent snapshot.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		Panics:    p.panics.Load(),
		Queued:    len(p.tasks),
	}
}

// NewPool starts n workers (minimum 1) with a task queue of the given
// capacity (minimum 0: a task is accepted only by an idle worker).
// onPanic, when non-nil, is called from the worker goroutine with every
// recovered task panic — the hook for metrics and logging; it must not
// itself panic.
func NewPool(n, queue int, onPanic func(*PanicError)) *Pool {
	if n < 1 {
		n = 1
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{tasks: make(chan func(), queue), onPanic: onPanic}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for task := range p.tasks {
		p.run(task)
	}
}

// run executes one task, converting a panic into an accounted,
// reported-but-contained event.
func (p *Pool) run(task func()) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			if p.onPanic != nil {
				p.onPanic(&PanicError{Value: r, Stack: debug.Stack()})
			}
		}
	}()
	defer p.completed.Add(1)
	task()
}

// Submit enqueues a task without blocking: a full queue refuses it with
// ErrPoolFull, so the queue capacity is the caller's load-shedding
// bound. It returns ErrPoolClosed once Close has begun; a nil task is
// ignored.
func (p *Pool) Submit(task func()) error {
	if task == nil {
		return nil
	}
	// The read lock pins the open state for the duration of the send:
	// Close takes the write lock before closing the channel, so a
	// Submit that saw closed==false cannot send on a closed channel.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- task:
		p.submitted.Add(1)
		return nil
	default:
		return ErrPoolFull
	}
}

// Close stops intake, waits for queued and running tasks to finish, and
// returns the number of panics contained over the pool's lifetime.
// Close is idempotent and safe to call concurrently with Submit.
func (p *Pool) Close() uint64 {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
	return p.panics.Load()
}

// Panics returns the number of task panics contained so far.
func (p *Pool) Panics() uint64 { return p.panics.Load() }

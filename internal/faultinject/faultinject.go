// Package faultinject is the chaos-testing hook registry for the
// serving path: a set of named injection points compiled into
// production code paths that do nothing until a test (or an operator
// running a fire drill) arms them with a fault. Armed faults can delay,
// error or panic at their point, for a bounded number of fires, so the
// chaos suite can prove the degradation ladder's invariants — workers
// survive panics, the breaker trips and recovers, shed requests get
// 429 not 500 — against real induced failures.
//
// The disarmed fast path is a single atomic load, so leaving the
// points compiled into hot loops costs nothing in production.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Named injection points wired into the serving path. The constant is
// the registry key; arming an unknown name is allowed (the point just
// never fires) so specs stay forward-compatible.
const (
	// PointPredictSlow delays inside the CNN prediction goroutine —
	// the "sick slow model" fault that must trip the per-request
	// deadline, not hang the handler.
	PointPredictSlow = "serve.predict.slow"
	// PointPredictPanic panics inside the CNN prediction goroutine —
	// the poison-input fault the ladder must contain and degrade.
	PointPredictPanic = "serve.predict.panic"
	// PointReloadCorrupt fails model reload validation after a
	// successful decode — the corrupt deploy artifact fault.
	PointReloadCorrupt = "serve.reload.corrupt"
	// PointParseStall delays inside the request-body scan loops (Matrix
	// Market lines, JSON triplets) — the slow-loris request body
	// fault; it honours the request context.
	PointParseStall = "sparse.parse.stall"
	// PointLabelPanic panics inside the per-matrix build/label step of
	// corpus generation — the poison-matrix fault that must be
	// quarantined, not abort a multi-hour label collection.
	PointLabelPanic = "dataset.label.panic"
	// PointLabelStall delays inside the per-matrix build/label step —
	// the pathological-matrix fault the -matrix-timeout deadline must
	// contain.
	PointLabelStall = "dataset.label.stall"
	// PointCandidateCorrupt flips a byte in a freshly retrained
	// candidate model artifact before the shepherd offers it for shadow
	// loading — the corrupt-retrain fault the probe-validated shadow
	// load must reject while the live model keeps serving.
	PointCandidateCorrupt = "shepherd.candidate.corrupt"
	// PointStoreWriteFail fails a corpus-store shard write — the
	// ENOSPC/EIO fault a long bulk ingestion must turn into a clean
	// resumable abort, never a torn store.
	PointStoreWriteFail = "dataset.store.writefail"
	// PointStoreCorrupt flips a byte in a freshly published corpus-store
	// shard — the torn-write fault the salvage path must detect on open,
	// recover what it can from, and quarantine the rest of, and that a
	// resumed build must heal by regenerating the shard.
	PointStoreCorrupt = "dataset.store.corrupt"
)

// Fault describes what an armed point does when reached: sleep for
// Delay (context-aware via InjectCtx), then return Err or panic with
// Panic. Remaining bounds the number of fires; negative means
// unlimited, and a fault auto-disarms when it hits zero.
type Fault struct {
	Delay     time.Duration
	Err       error
	Panic     any
	Remaining int64
}

type armed struct {
	fault Fault
	fired uint64
}

var (
	mu       sync.Mutex
	points   = map[string]*armed{}
	armCount atomic.Int32 // fast-path gate: 0 means every point is disarmed
)

// Enable arms a point. Remaining <= 0 is normalised to unlimited;
// re-arming replaces the previous fault but keeps the fire count.
func Enable(point string, f Fault) {
	if f.Remaining == 0 {
		f.Remaining = -1
	}
	mu.Lock()
	defer mu.Unlock()
	if a, ok := points[point]; ok {
		a.fault = f
		return
	}
	points[point] = &armed{fault: f}
	armCount.Add(1)
}

// Disable disarms a point; unknown names are a no-op.
func Disable(point string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[point]; ok {
		delete(points, point)
		armCount.Add(-1)
	}
}

// Reset disarms every point (test teardown).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*armed{}
	armCount.Store(0)
}

// Active reports whether any point is armed.
func Active() bool { return armCount.Load() > 0 }

// Fired returns how many times a point has fired since it was armed
// (0 for disarmed points — counts do not survive Disable).
func Fired(point string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if a, ok := points[point]; ok {
		return a.fired
	}
	return 0
}

// Inject fires the point with a background context.
func Inject(point string) error { return InjectCtx(context.Background(), point) }

// InjectCtx fires the named point if armed: it sleeps for the fault's
// Delay (returning ctx.Err() early on cancellation), then returns the
// fault's Err or panics with its Panic value. Disarmed points return
// nil after one atomic load.
func InjectCtx(ctx context.Context, point string) error {
	if armCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	a, ok := points[point]
	var f Fault
	if ok {
		if a.fault.Remaining == 0 {
			ok = false
		} else {
			if a.fault.Remaining > 0 {
				a.fault.Remaining--
			}
			a.fired++
			f = a.fault
		}
	}
	mu.Unlock()
	if !ok {
		return nil
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if f.Panic != nil {
		panic(fmt.Sprintf("faultinject: %s: %v", point, f.Panic))
	}
	return f.Err
}

// ErrInjected is the default error for faults armed from a spec string
// without an explicit behaviour.
var ErrInjected = errors.New("faultinject: injected fault")

// Arm parses and arms one comma-separated spec list of the form
//
//	point[:count][@delay]
//
// e.g. "serve.predict.panic:3" (panic three times) or
// "serve.predict.slow@30s" (sleep 30s per fire, forever). Panic points
// (name containing "panic") arm a panic; stall/slow points arm only
// the delay (default 30s when omitted); everything else arms
// ErrInjected. It is the bridge for the SERVE_FAULT_INJECT environment
// hook in cmd/serve.
func Arm(specs string) error {
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		var delay time.Duration
		if at := strings.IndexByte(spec, '@'); at >= 0 {
			d, err := time.ParseDuration(spec[at+1:])
			if err != nil {
				return fmt.Errorf("faultinject: bad delay in spec %q: %w", spec, err)
			}
			delay = d
			spec = spec[:at]
		}
		count := int64(-1)
		if colon := strings.IndexByte(spec, ':'); colon >= 0 {
			n, err := strconv.ParseInt(spec[colon+1:], 10, 64)
			if err != nil || n <= 0 {
				return fmt.Errorf("faultinject: bad count in spec %q", spec)
			}
			count = n
			spec = spec[:colon]
		}
		f := Fault{Delay: delay, Remaining: count}
		switch {
		case strings.Contains(spec, "panic"):
			f.Panic = "injected panic"
		case strings.Contains(spec, "slow"), strings.Contains(spec, "stall"):
			if f.Delay == 0 {
				f.Delay = 30 * time.Second
			}
		default:
			f.Err = ErrInjected
		}
		Enable(spec, f)
	}
	return nil
}

// CorruptFile flips the middle byte of the file at path, the damage
// PointCandidateCorrupt and PointStoreCorrupt do where they fire: enough
// for an envelope checksum to reject the file downstream.
func CorruptFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("faultinject: cannot corrupt empty file %s", path)
	}
	b[len(b)/2] ^= 0xff
	return os.WriteFile(path, b, 0o644)
}

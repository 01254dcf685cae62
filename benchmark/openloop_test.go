package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 200, time.Second)
	b := poissonSchedule(7, 200, time.Second)
	c := poissonSchedule(8, 200, time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d due at %v and %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
	if len(a) < 150 || len(a) > 250 {
		t.Errorf("%d arrivals in 1s at 200/s", len(a))
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Error("different seeds gave the same schedule")
	}
}

// A server that stalls once must show the stall in the due-time latency
// of the requests queued behind it — the schedule does not slow down —
// while latency from send (what a closed loop would report) and the
// generator's own lateness stay small.
func TestOpenLoopChargesStallToQueuedArrivals(t *testing.T) {
	const stall = 200 * time.Millisecond
	due := poissonSchedule(1, 250, time.Second)
	var calls atomic.Int64
	out := runOpenLoop(due, 1, func(int) bool {
		if calls.Add(1) == 20 {
			time.Sleep(stall)
		}
		return true
	})
	var fromDue, fromSend, late []float64
	for _, a := range out {
		if !a.ok {
			t.Fatal("stub request failed")
		}
		fromDue = append(fromDue, ms(a.sinceDue))
		fromSend = append(fromSend, ms(a.sinceSend))
		late = append(late, ms(a.genLate))
	}
	// About 50 of 250 arrivals fall due during the stall, far more than
	// 5% of the run, so the due-time p95 sits well inside it.
	if p95 := quantile(sortedCopy(fromDue), 0.95); p95 < ms(stall)/2 {
		t.Errorf("due-time p95 = %.1fms: the stall is hidden from the arrivals queued behind it", p95)
	}
	if p95 := quantile(sortedCopy(fromSend), 0.95); p95 > 20 {
		t.Errorf("send-time p95 = %.1fms, want it small (only one request was slow)", p95)
	}
	if p95 := quantile(sortedCopy(late), 0.95); p95 > 20 {
		t.Errorf("generator lateness p95 = %.1fms, want it small", p95)
	}
}

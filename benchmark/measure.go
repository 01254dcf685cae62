package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// heapSampler samples the heap in use (runtime.MemStats's HeapInuse:
// live objects, garbage not yet swept and the unused part of their
// spans) every 10 ms from when it starts until stop, through
// runtime/metrics, which does not stop the world. It starts once set-up
// is done and its garbage collected: the pools are the harness's own
// memory, the figure is the program's while it works.
type heapSampler struct {
	quit    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MB
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		inUse := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		for {
			metrics.Read(inUse)
			h.samples = append(h.samples, float64(inUse[0].Value.Uint64()+inUse[1].Value.Uint64())/(1<<20))
			select {
			case <-t.C:
			case <-h.quit:
				return
			}
		}
	}()
	return h
}

// stop ends sampling and fills the heap figures. The end-to-end one is
// the 90th percentile of the samples, not their maximum: between
// collections the heap climbs to about twice what is live, which the
// 90th percentile sees, while the maximum is whichever rare spike (one
// large body parsed while a collection was behind) the run happened to
// have — 46 to 57 MB on four runs of hot_zipf whose 90th percentile
// read 26.0 to 27.7. The maximum is reported beside it.
func (h *heapSampler) stop(res *result) {
	close(h.quit)
	h.wg.Wait()
	s := sortedCopy(h.samples)
	res.metrics["heap_p90_mb"] = quantile(s, 0.9)
	res.metrics["bench.heap_max_mb"] = quantile(s, 1)
	res.notef("heap in use over %d samples: p50 %.1fMB p90 %.1fMB max %.1fMB", len(s), quantile(s, 0.5), quantile(s, 0.9), quantile(s, 1))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer runs f n times on a quiet process and returns heap objects
// allocated per call (process-wide delta, so callers measure with no
// traffic in flight).
func allocsPer(n int, f func()) float64 {
	f() // warm pools and lazy state outside the count
	before := mallocs()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(mallocs()-before) / float64(n)
}

// counters is the sum of several registries' series (the two replicas
// of fleet_open are scraped together).
type counters map[string]float64

func scrapeAll(regs ...*obs.Registry) (counters, error) {
	total := counters{}
	for _, reg := range regs {
		var buf bytes.Buffer
		if _, err := reg.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("scraping metrics: %w", err)
		}
		m, err := obs.ParseMetrics(&buf)
		if err != nil {
			return nil, fmt.Errorf("scraping metrics: %w", err)
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// delta is after-before of every series whose name starts with prefix
// (a counter family summed over its labels).
func delta(before, after counters, prefix string) float64 {
	d := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// scratchDir makes a per-run directory under outDir; the caller removes
// it. Everything the harness writes stays inside the checkout.
func scratchDir(outDir, prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, prefix+"-")
}

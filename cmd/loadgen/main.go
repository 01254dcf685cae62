// Command loadgen replays a heavy-tailed synthetic prediction workload
// against a serve replica or cluster router and reports availability
// and latency. It is the measurement half of the cluster chaos drill
// (scripts/clusterdrill): the drill kills a replica mid-run and reads
// the success rate off this tool's JSON report.
//
//	loadgen -url http://127.0.0.1:9090 -duration 10s -concurrency 8
//
// The workload is a fixed pool of synthgen mixture matrices with
// Zipf-distributed popularity — a few hot sparsity patterns dominate,
// like production traffic — which exercises the prediction cache and
// the router's shard routing, not just the forward pass.
//
// Two arrival processes are supported. The default, -arrival closed,
// runs -concurrency workers that each wait for their last answer
// before sending the next request. That is the wrong tool for overload
// measurement: a closed loop self-throttles — when the server slows
// down, the client's offered load drops in lockstep, latency looks
// flat, and the collapse you meant to measure never arrives
// (coordinated omission). -arrival poisson instead fires an open-loop
// Poisson process at -rate requests/second regardless of how the
// server is doing, which is how real overload behaves. Pair it with
// -slo to get a goodput column: only 200s answered within the SLO
// count, so a server that answers everything late scores zero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

type report struct {
	URL           string         `json:"url"`
	Arrival       string         `json:"arrival"`
	Requests      int64          `json:"requests"`
	Success       int64          `json:"success"`
	InSLO         int64          `json:"in_slo"`
	TransportErrs int64          `json:"transport_errors"`
	Dropped       int64          `json:"dropped"`
	Codes         map[string]int `json:"codes"`
	SuccessRate   float64        `json:"success_rate"`
	CachedAnswers int64          `json:"cached_answers"`
	P50Ms         float64        `json:"p50_ms"`
	P95Ms         float64        `json:"p95_ms"`
	P99Ms         float64        `json:"p99_ms"`
	ThroughputRPS float64        `json:"throughput_rps"`
	OfferedRPS    float64        `json:"offered_rps"`
	GoodputRPS    float64        `json:"goodput_rps"`
	DurationSec   float64        `json:"duration_sec"`
}

func main() {
	url := flag.String("url", "http://127.0.0.1:9090", "target base URL (router or single replica)")
	duration := flag.Duration("duration", 10*time.Second, "how long to run (ignored when -n > 0)")
	n := flag.Int64("n", 0, "total request cap (0 = run for -duration)")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	matrices := flag.Int("matrices", 64, "distinct matrices in the workload pool")
	maxN := flag.Int("maxn", 384, "largest matrix dimension in the pool")
	zipfS := flag.Float64("zipf", 1.2, "Zipf skew of matrix popularity (larger = hotter head)")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request client timeout")
	minSuccess := flag.Float64("min-success", 0, "exit nonzero when success_rate falls below this (0 disables)")
	arrival := flag.String("arrival", "closed", `arrival process: "closed" (workers wait for each answer; self-throttles under overload) or "poisson" (open-loop at -rate req/s; offered load holds regardless of server state)`)
	rate := flag.Float64("rate", 100, "offered request rate in req/s (poisson mode only)")
	slo := flag.Duration("slo", 0, "latency SLO defining goodput: only 200s within this count as good (0 = every 200 is good)")
	maxInflight := flag.Int("max-inflight", 4096, "open-loop in-flight cap; arrivals beyond it are dropped and counted, not queued (poisson mode only)")
	out := flag.String("out", "", "write the JSON report here (empty = stdout)")
	flag.Parse()
	if *arrival != "closed" && *arrival != "poisson" {
		fmt.Fprintf(os.Stderr, "loadgen: -arrival must be closed or poisson, got %q\n", *arrival)
		os.Exit(2)
	}
	if *arrival == "poisson" && *rate <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: poisson arrivals need -rate > 0")
		os.Exit(2)
	}

	// Build the matrix pool once, bodies pre-marshalled: the generator
	// must never be the bottleneck during the measured window.
	specs := synthgen.SampleSpecs(*matrices, *seed, *maxN)
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		bodies[i] = marshalBody(synthgen.Build(sp))
	}
	rng := rand.New(rand.NewSource(*seed))
	zipf := rand.NewZipf(rng, *zipfS, 1, uint64(len(bodies)-1))
	// Pre-draw the popularity sequence so workers only do atomic reads.
	const seqLen = 1 << 14
	seq := make([]int, seqLen)
	for i := range seq {
		seq[i] = int(zipf.Uint64())
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		},
	}

	var (
		next      atomic.Int64
		success   atomic.Int64
		inSLO     atomic.Int64
		transport atomic.Int64
		cached    atomic.Int64
		dropped   atomic.Int64

		mu        sync.Mutex
		codes     = map[string]int{}
		latencies []float64
	)
	// doRequest fires one request and folds its outcome into the stats.
	doRequest := func(body []byte) {
		reqStart := time.Now()
		res, err := client.Post(*url+"/v1/predict", "application/json", bytes.NewReader(body))
		lat := time.Since(reqStart)
		if err != nil {
			transport.Add(1)
			return
		}
		var ans struct {
			Cached bool `json:"cached"`
		}
		json.NewDecoder(res.Body).Decode(&ans)
		res.Body.Close()
		if res.StatusCode == http.StatusOK {
			success.Add(1)
			if *slo <= 0 || lat <= *slo {
				inSLO.Add(1)
			}
			if ans.Cached {
				cached.Add(1)
			}
		}
		mu.Lock()
		codes[fmt.Sprintf("%d", res.StatusCode)]++
		latencies = append(latencies, float64(lat.Milliseconds())+float64(lat.Microseconds()%1000)/1000)
		mu.Unlock()
	}

	stopAt := time.Now().Add(*duration)
	start := time.Now()
	var wg sync.WaitGroup
	switch *arrival {
	case "closed":
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if *n > 0 && i >= *n {
						return
					}
					if *n == 0 && time.Now().After(stopAt) {
						return
					}
					doRequest(bodies[seq[int(i)&(seqLen-1)]])
				}
			}()
		}
	case "poisson":
		// Open loop: exponential inter-arrival gaps at -rate req/s, one
		// goroutine per arrival. The in-flight cap protects the client
		// machine, not the server — arrivals beyond it are dropped (and
		// reported), never queued, or the loop would quietly close.
		sem := make(chan struct{}, *maxInflight)
		arrivalRNG := rand.New(rand.NewSource(*seed + 1))
		// Schedule against absolute arrival times, not per-gap sleeps:
		// sleep overshoot and dispatch overhead must not silently lower
		// the offered rate at high -rate.
		nextAt := time.Now()
		for i := int64(0); *n <= 0 || i < *n; i++ {
			nextAt = nextAt.Add(time.Duration(arrivalRNG.ExpFloat64() / *rate * float64(time.Second)))
			if gap := time.Until(nextAt); gap > 0 {
				time.Sleep(gap)
			}
			if *n <= 0 && time.Now().After(stopAt) {
				break
			}
			body := bodies[seq[int(i)&(seqLen-1)]]
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					doRequest(body)
				}()
			default:
				dropped.Add(1)
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	var failures int64
	for code, c := range codes {
		if code != "200" {
			failures += int64(c)
		}
	}
	total := success.Load() + failures + transport.Load()
	rep := report{
		URL:           *url,
		Arrival:       *arrival,
		Requests:      total,
		Success:       success.Load(),
		InSLO:         inSLO.Load(),
		TransportErrs: transport.Load(),
		Dropped:       dropped.Load(),
		Codes:         codes,
		CachedAnswers: cached.Load(),
		DurationSec:   elapsed.Seconds(),
	}
	if total > 0 {
		rep.SuccessRate = float64(rep.Success) / float64(total)
		rep.ThroughputRPS = float64(total) / elapsed.Seconds()
		rep.OfferedRPS = float64(total+rep.Dropped) / elapsed.Seconds()
		rep.GoodputRPS = float64(rep.InSLO) / elapsed.Seconds()
	}
	sort.Float64s(latencies)
	rep.P50Ms = percentile(latencies, 0.50)
	rep.P95Ms = percentile(latencies, 0.95)
	rep.P99Ms = percentile(latencies, 0.99)

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
	os.Stdout.Write(enc)

	if *minSuccess > 0 && rep.SuccessRate < *minSuccess {
		fmt.Fprintf(os.Stderr, "loadgen: success rate %.4f below floor %.4f\n", rep.SuccessRate, *minSuccess)
		os.Exit(1)
	}
}

// marshalBody renders a COO as the serve JSON predict body.
func marshalBody(m *sparse.COO) []byte {
	type req struct {
		Rows    int          `json:"rows"`
		Cols    int          `json:"cols"`
		Entries [][3]float64 `json:"entries"`
	}
	rows, cols := m.Dims()
	entries := m.Entries()
	r := req{Rows: rows, Cols: cols, Entries: make([][3]float64, len(entries))}
	for i, e := range entries {
		r.Entries[i] = [3]float64{float64(e.Row), float64(e.Col), e.Val}
	}
	b, _ := json.Marshal(r)
	return b
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

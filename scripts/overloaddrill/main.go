// Command overloaddrill is the overload-control drill for the serving
// tier (wired into scripts/check.sh / make check and CI). Where
// clusterdrill proves the cluster survives a replica death, this drill
// proves it survives its own clients: an open-loop surge at several
// times capacity must degrade into shed load and brownout, never into
// congestion collapse. It exercises the real binaries end to end:
//
//  1. trains a tiny model in-process and writes the envelope artifact,
//  2. builds cmd/serve, cmd/router and cmd/loadgen; starts two
//     replicas — each with an SLO target (-slo-target-p99), no cache
//     (every request pays for compute) and an injected CNN delay
//     (SERVE_FAULT_INJECT=serve.predict.slow) so capacity is low and
//     known — and the router in front with a retry budget,
//  3. measures baseline capacity with a short closed-loop run,
//  4. fires an open-loop Poisson surge at 5x that capacity and
//     requires: goodput stays >= 70% of capacity (no collapse), zero
//     5xx (overload answers are 429 sheds, never errors), and the
//     brownout controller engaged on at least one replica
//     (serve_brownout_transitions_total{to="engaged"} with dtree-rung
//     answers recorded),
//  5. after the surge, requires recovery within 10s: brownout
//     disengages everywhere (serve_brownout_state back to 0) and a
//     light closed-loop run's p99 lands back inside the SLO,
//  6. writes a JSON goodput/latency artifact for CI, and
//  7. SIGTERMs everything and requires clean drains.
//
// It exits 0 only if every step passes. -short shrinks the load
// windows for use in SHORT=1 check runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/drill"
)

var short = flag.Bool("short", false, "shrink the load windows (for SHORT=1 check runs)")
var artifact = flag.String("artifact", "", "write the JSON goodput/latency summary here (empty = skip)")

const (
	replicaCount = 2
	sloTarget    = 500 * time.Millisecond
	// cnnDelay makes the CNN rung the unambiguous bottleneck
	// (~workers/delay req/s per replica). It must be slow enough that a
	// surge at surgeFactor times capacity still fits in the drill host's
	// own CPU — loadgen, the router (which parses every body to route
	// it) and both replicas share the machine, and on a small runner a
	// too-fast baseline turns the drill into a host-CPU benchmark where
	// everything, sheds included, answers in seconds.
	cnnDelay    = 100 * time.Millisecond
	surgeFactor = 5.0
)

func main() { drill.Main("overloaddrill", run) }

// engagedSeries counts a replica's brownout engagements. It is a
// labelled counter: the page has no such series until the first one.
const engagedSeries = `serve_brownout_transitions_total{to="engaged"}`

func run(d *drill.D) error {
	d.Step("training tiny model")
	_, model, err := d.TinyModel()
	if err != nil {
		return err
	}

	d.Step("building binaries")
	if err := d.Build("serve", "router", "loadgen"); err != nil {
		return err
	}

	// Replicas: SLO-armed, cache off (every request computes, so offered
	// load is real load), 2 workers and an injected per-inference CNN
	// delay — capacity is ~workers/delay per replica, low enough to
	// overwhelm cheaply and precisely.
	d.Step("starting replicas")
	var replicas []*drill.Proc
	var urls []string
	for i := 0; i < replicaCount; i++ {
		rep, err := d.Start(drill.Child{Bin: "serve", Quiet: true,
			Env: []string{"SERVE_FAULT_INJECT=serve.predict.slow@" + cnnDelay.String()},
			Args: []string{
				"-addr", "127.0.0.1:0",
				"-model", model,
				"-watch", "0",
				"-cache", "0",
				"-workers", "2",
				"-slo-target-p99", sloTarget.String(),
				"-predict-timeout", "2s",
				"-request-timeout", "10s",
			}})
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		replicas = append(replicas, rep)
		urls = append(urls, rep.URL)
	}

	d.Step("starting router in front of " + strings.Join(urls, ", "))
	router, err := d.Start(drill.Child{Bin: "router", Args: []string{
		"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(urls, ","),
		"-probe-interval", "100ms",
		"-probe-timeout", "500ms",
		"-retries", "2",
		"-backoff", "10ms",
		"-request-timeout", "10s",
		"-retry-budget-ratio", "0.1",
		"-retry-budget-burst", "10",
	}})
	if err != nil {
		return err
	}
	routerURL := router.URL

	d.Step("waiting for router readiness at " + routerURL)
	if err := drill.Ready(15*time.Second, routerURL); err != nil {
		return err
	}

	// 3. Baseline capacity: a short closed loop at modest concurrency.
	// Closed-loop is the right tool HERE — it cannot overload, so its
	// throughput approximates sustainable capacity.
	capacityDur, surgeDur, recoveryDur := 4*time.Second, 10*time.Second, 6*time.Second
	if *short {
		capacityDur, surgeDur, recoveryDur = 3*time.Second, 6*time.Second, 5*time.Second
	}
	// Every pass replays the same small pool against the same SLO.
	loadgen := func(args ...string) (*drill.LoadReport, error) {
		return d.Loadgen(append(args, "-url", routerURL, "-matrices", "16", "-maxn", "64",
			"-slo", sloTarget.String(), "-timeout", "10s")...)
	}
	d.Step(fmt.Sprintf("measuring capacity (closed loop, %s)", capacityDur))
	baseline, err := loadgen("-arrival", "closed", "-duration", capacityDur.String(), "-concurrency", "6")
	if err != nil {
		return err
	}
	capacity := baseline.ThroughputRPS
	fmt.Printf("overloaddrill: capacity ~%.0f req/s (baseline p99 %.1fms)\n", capacity, baseline.P99Ms)
	if capacity < 20 {
		return fmt.Errorf("capacity %.1f req/s is implausibly low; the drill cannot size a surge", capacity)
	}

	// The baseline can brush the SLO hard enough to engage brownout on
	// its own; start the surge from a clean slate so the engagement
	// asserted below is unambiguously the surge's doing.
	if err := awaitBrownoutClear(urls, 15*time.Second, "brownout still engaged after the baseline run"); err != nil {
		return err
	}
	engagedBefore := map[string]float64{}
	for _, u := range urls {
		m, err := drill.Scrape(u + "/metrics")
		if err != nil {
			return fmt.Errorf("scraping replica %s: %w", u, err)
		}
		// Absent here means no engagement yet, which reads as 0.
		engagedBefore[u], _ = m.Value(engagedSeries)
	}

	// 4. The surge: open-loop Poisson at 5x capacity. Offered load does
	// not care how the server is doing — that is the point.
	surgeRate := capacity * surgeFactor
	d.Step(fmt.Sprintf("surging at %.0f req/s (%.0fx capacity, open loop, %s)", surgeRate, surgeFactor, surgeDur))
	surge, err := loadgen("-arrival", "poisson", "-rate", fmt.Sprintf("%f", surgeRate), "-duration", surgeDur.String())
	if err != nil {
		return err
	}
	surgeEnd := time.Now()
	fmt.Printf("overloaddrill: surge offered %.0f req/s, goodput %.0f req/s, codes %v\n",
		surge.OfferedRPS, surge.GoodputRPS, surge.Codes)

	// No congestion collapse: goodput under 5x overload must hold at
	// 70%+ of capacity — shed the excess, keep serving the rest.
	if surge.GoodputRPS < 0.7*capacity {
		return fmt.Errorf("goodput collapsed under surge: %.1f req/s, want >= 70%% of %.1f req/s capacity", surge.GoodputRPS, capacity)
	}
	// Overload must answer with sheds (429), never with server errors.
	for code, count := range surge.Codes {
		if strings.HasPrefix(code, "5") && count > 0 {
			return fmt.Errorf("surge produced %d %s answers; overload must shed, not error (codes %v)", count, code, surge.Codes)
		}
	}

	// Brownout engaged somewhere: sustained SLO burn must have stepped
	// at least one replica down to the dtree rung proactively. Engagement
	// is counted as a delta across the surge so a baseline-era episode
	// cannot satisfy it.
	engaged, dtreeAnswers := 0, 0.0
	for _, u := range urls {
		m, err := drill.Scrape(u + "/metrics")
		if err != nil {
			return fmt.Errorf("scraping replica %s: %w", u, err)
		}
		// Both series are absent on a replica that never engaged — one
		// engaging is enough — so absent counts as none here, and a
		// renamed metric fails the two checks below instead.
		if n, _ := m.Value(engagedSeries); n > engagedBefore[u] {
			engaged++
		}
		n, _ := m.Value(`serve_rung_total{rung="dtree"}`)
		dtreeAnswers += n
	}
	if engaged == 0 {
		return fmt.Errorf("no replica's brownout controller engaged under a %.0fx surge", surgeFactor)
	}
	if dtreeAnswers == 0 {
		return fmt.Errorf("brownout engaged but no dtree-rung answers were recorded")
	}
	fmt.Printf("overloaddrill: brownout engaged on %d/%d replicas, %d dtree answers\n", engaged, len(urls), int(dtreeAnswers))

	// 5. Recovery: light open-loop traffic after the surge — open loop
	// at a rate well under CNN capacity, because a closed loop against
	// the fast browned-out rung would keep offered load high and the
	// controller would (correctly) refuse to step back up. Brownout must
	// disengage on every replica and p99 must land back inside the SLO,
	// all within 10s of the load dropping.
	d.Step("checking post-surge recovery")
	recovery, err := loadgen("-arrival", "poisson", "-rate", fmt.Sprintf("%f", 0.3*capacity), "-duration", recoveryDur.String())
	if err != nil {
		return err
	}
	// At least a second, so a slow recovery pass still gets one look.
	left := max(10*time.Second-time.Since(surgeEnd), time.Second)
	if err := awaitBrownoutClear(urls, left, "brownout never disengaged after the surge"); err != nil {
		return err
	}
	if recovery.SuccessRate < 0.95 {
		return fmt.Errorf("post-surge success rate %.4f, want >= 0.95", recovery.SuccessRate)
	}
	sloMs := float64(sloTarget.Milliseconds())
	if recovery.P99Ms > sloMs {
		return fmt.Errorf("post-surge p99 %.1fms still outside the %.0fms SLO", recovery.P99Ms, sloMs)
	}
	fmt.Printf("overloaddrill: recovered (p99 %.1fms, success rate %.4f)\n", recovery.P99Ms, recovery.SuccessRate)

	// 6. Goodput/latency artifact for CI.
	if *artifact != "" {
		summary := map[string]any{
			"capacity_rps":      capacity,
			"baseline_p99_ms":   baseline.P99Ms,
			"surge_factor":      surgeFactor,
			"surge_offered_rps": surge.OfferedRPS,
			"surge_goodput_rps": surge.GoodputRPS,
			"surge_codes":       surge.Codes,
			"recovery_p99_ms":   recovery.P99Ms,
			"brownout_engaged":  engaged,
			"dtree_answers":     dtreeAnswers,
		}
		data, _ := json.MarshalIndent(summary, "", "  ")
		if err := os.MkdirAll(filepath.Dir(*artifact), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*artifact, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("overloaddrill: wrote goodput artifact to " + *artifact)
	}

	// 7. Clean drains.
	d.Step("checking graceful shutdown")
	return drill.Drain(15*time.Second, append(replicas, router)...)
}

// awaitBrownoutClear polls every replica until serve_brownout_state is
// 0 everywhere. Engaged replicas are nudged with a tiny predict:
// brownout evaluation is traffic-driven, so a replica gone quiet never
// closes the cool intervals that would step it back up.
func awaitBrownoutClear(urls []string, limit time.Duration, what string) error {
	const probeBody = `{"rows":10,"cols":10,"entries":[[0,0,1],[1,1,1],[2,2,1],[3,3,1],[4,4,1],[5,5,1],[6,6,1],[7,7,1],[8,8,1],[9,9,1]]}`
	return drill.Await(limit, what, func() (bool, error) {
		clear := true
		for _, u := range urls {
			m, err := drill.Scrape(u + "/metrics")
			if err != nil {
				return false, nil
			}
			// The gauge is always rendered: without it "clear" would be
			// the absence of a metric, not of brownout.
			state, err := m.Value("serve_brownout_state")
			if err != nil {
				return false, fmt.Errorf("replica %s: %w", u, err)
			}
			if state != 0 {
				clear = false
				if resp, err := http.Post(u+"/v1/predict", "application/json", strings.NewReader(probeBody)); err == nil {
					resp.Body.Close()
				}
			}
		}
		return clear, nil
	})
}

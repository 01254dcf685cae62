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
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
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

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "overloaddrill: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("overloaddrill: PASS")
}

// loadReport is the slice of cmd/loadgen's JSON report the drill reads.
type loadReport struct {
	Requests      int64          `json:"requests"`
	Success       int64          `json:"success"`
	InSLO         int64          `json:"in_slo"`
	TransportErrs int64          `json:"transport_errors"`
	Codes         map[string]int `json:"codes"`
	SuccessRate   float64        `json:"success_rate"`
	P99Ms         float64        `json:"p99_ms"`
	ThroughputRPS float64        `json:"throughput_rps"`
	OfferedRPS    float64        `json:"offered_rps"`
	GoodputRPS    float64        `json:"goodput_rps"`
}

func run() error {
	dir, err := os.MkdirTemp("", "overloaddrill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	model := filepath.Join(dir, "model.gob")

	step("training tiny model")
	res, err := core.Train(core.Options{
		Count: 40, MaxN: 96, Epochs: 2, RepSize: 16, RepBins: 8, Seed: 11,
	})
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	if err := res.Selector.SaveFile(model); err != nil {
		return err
	}

	step("building binaries")
	bins := map[string]string{}
	for _, name := range []string{"serve", "router", "loadgen"} {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	// Replicas: SLO-armed, cache off (every request computes, so offered
	// load is real load), 2 workers and an injected per-inference CNN
	// delay — capacity is ~workers/delay per replica, low enough to
	// overwhelm cheaply and precisely.
	step("starting replicas")
	replicas := map[string]*exec.Cmd{}
	var urls []string
	for i := 0; i < replicaCount; i++ {
		cmd := exec.Command(bins["serve"],
			"-addr", "127.0.0.1:0",
			"-model", model,
			"-watch", "0",
			"-cache", "0",
			"-workers", "2",
			"-slo-target-p99", sloTarget.String(),
			"-predict-timeout", "2s",
			"-request-timeout", "10s",
		)
		cmd.Env = append(os.Environ(), "SERVE_FAULT_INJECT=serve.predict.slow@"+cnnDelay.String())
		cmd.Stderr = io.Discard
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		base, err := scrapeAddr(stdout, "serve")
		if err != nil {
			cmd.Process.Kill()
			return fmt.Errorf("replica %d: %w", i, err)
		}
		defer func() { cmd.Process.Kill() }()
		replicas[base] = cmd
		urls = append(urls, base)
	}

	step("starting router in front of " + strings.Join(urls, ", "))
	router := exec.Command(bins["router"],
		"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(urls, ","),
		"-probe-interval", "100ms",
		"-probe-timeout", "500ms",
		"-retries", "2",
		"-backoff", "10ms",
		"-request-timeout", "10s",
		"-retry-budget-ratio", "0.1",
		"-retry-budget-burst", "10",
	)
	router.Stderr = os.Stderr
	rout, err := router.StdoutPipe()
	if err != nil {
		return err
	}
	if err := router.Start(); err != nil {
		return err
	}
	defer router.Process.Kill()
	routerURL, err := scrapeAddr(rout, "router")
	if err != nil {
		return err
	}

	step("waiting for router readiness at " + routerURL)
	if err := waitFor(15*time.Second, func() (bool, error) {
		code, _, _ := get(routerURL + "/readyz")
		return code == http.StatusOK, nil
	}); err != nil {
		return fmt.Errorf("router never became ready: %w", err)
	}

	// 3. Baseline capacity: a short closed loop at modest concurrency.
	// Closed-loop is the right tool HERE — it cannot overload, so its
	// throughput approximates sustainable capacity.
	capacityDur, surgeDur, recoveryDur := 4*time.Second, 10*time.Second, 6*time.Second
	if *short {
		capacityDur, surgeDur, recoveryDur = 3*time.Second, 6*time.Second, 5*time.Second
	}
	step(fmt.Sprintf("measuring capacity (closed loop, %s)", capacityDur))
	baseline, err := runLoadgen(bins["loadgen"], dir, "baseline",
		"-url", routerURL,
		"-arrival", "closed",
		"-duration", capacityDur.String(),
		"-concurrency", "6",
		"-matrices", "16",
		"-maxn", "64",
		"-slo", sloTarget.String(),
		"-timeout", "10s",
	)
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
	if err := awaitBrownoutClear(urls, 15*time.Second); err != nil {
		return fmt.Errorf("brownout still engaged after the baseline run: %w", err)
	}
	engagedBefore := map[string]float64{}
	for _, u := range urls {
		_, page, err := get(u + "/metrics")
		if err != nil {
			return fmt.Errorf("scraping replica %s: %w", u, err)
		}
		engagedBefore[u] = metricSample(page, `serve_brownout_transitions_total{to="engaged"}`)
	}

	// 4. The surge: open-loop Poisson at 5x capacity. Offered load does
	// not care how the server is doing — that is the point.
	surgeRate := capacity * surgeFactor
	step(fmt.Sprintf("surging at %.0f req/s (%.0fx capacity, open loop, %s)", surgeRate, surgeFactor, surgeDur))
	surge, err := runLoadgen(bins["loadgen"], dir, "surge",
		"-url", routerURL,
		"-arrival", "poisson",
		"-rate", fmt.Sprintf("%f", surgeRate),
		"-duration", surgeDur.String(),
		"-matrices", "16",
		"-maxn", "64",
		"-slo", sloTarget.String(),
		"-timeout", "10s",
	)
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
		_, page, err := get(u + "/metrics")
		if err != nil {
			return fmt.Errorf("scraping replica %s: %w", u, err)
		}
		if metricSample(page, `serve_brownout_transitions_total{to="engaged"}`) > engagedBefore[u] {
			engaged++
		}
		dtreeAnswers += metricSample(page, `serve_rung_total{rung="dtree"}`)
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
	step("checking post-surge recovery")
	recovery, err := runLoadgen(bins["loadgen"], dir, "recovery",
		"-url", routerURL,
		"-arrival", "poisson",
		"-rate", fmt.Sprintf("%f", 0.3*capacity),
		"-duration", recoveryDur.String(),
		"-matrices", "16",
		"-maxn", "64",
		"-slo", sloTarget.String(),
		"-timeout", "10s",
	)
	if err != nil {
		return err
	}
	if err := awaitBrownoutClear(urls, 10*time.Second-time.Since(surgeEnd)); err != nil {
		return fmt.Errorf("brownout never disengaged after the surge: %w", err)
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
	step("checking graceful shutdown")
	procs := map[string]*exec.Cmd{"router": router}
	for url, cmd := range replicas {
		procs["replica "+url] = cmd
	}
	for name, proc := range procs {
		if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
	}
	for name, proc := range procs {
		done := make(chan error, 1)
		go func() { done <- proc.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				return fmt.Errorf("%s exited uncleanly after SIGTERM: %v", name, err)
			}
		case <-time.After(15 * time.Second):
			return fmt.Errorf("%s did not drain within 15s of SIGTERM", name)
		}
	}
	return nil
}

// runLoadgen runs one loadgen pass and parses its JSON report.
func runLoadgen(bin, dir, name string, args ...string) (*loadReport, error) {
	report := filepath.Join(dir, name+".json")
	cmd := exec.Command(bin, append(args, "-out", report)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loadgen (%s): %v", name, err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		return nil, err
	}
	var rep loadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("loadgen (%s) report: %w", name, err)
	}
	if rep.Requests == 0 {
		return nil, fmt.Errorf("loadgen (%s) sent no requests", name)
	}
	return &rep, nil
}

func step(msg string) { fmt.Println("overloaddrill:", msg) }

// awaitBrownoutClear polls every replica until serve_brownout_state is
// 0 everywhere. Engaged replicas are nudged with a tiny predict:
// brownout evaluation is traffic-driven, so a replica gone quiet never
// closes the cool intervals that would step it back up.
func awaitBrownoutClear(urls []string, limit time.Duration) error {
	const probeBody = `{"rows":10,"cols":10,"entries":[[0,0,1],[1,1,1],[2,2,1],[3,3,1],[4,4,1],[5,5,1],[6,6,1],[7,7,1],[8,8,1],[9,9,1]]}`
	return waitFor(limit, func() (bool, error) {
		clear := true
		for _, u := range urls {
			_, page, err := get(u + "/metrics")
			if err != nil {
				return false, nil
			}
			if metricSample(page, "serve_brownout_state") != 0 {
				clear = false
				http.Post(u+"/v1/predict", "application/json", strings.NewReader(probeBody))
			}
		}
		return clear, nil
	})
}

// scrapeAddr reads a child's "<name>: listening on http://..." stdout
// line, then keeps draining the pipe so the child never blocks.
func scrapeAddr(r io.Reader, name string) (string, error) {
	sc := bufio.NewScanner(r)
	re := regexp.MustCompile(name + `: listening on (http://\S+)`)
	deadline := time.Now().Add(15 * time.Second)
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			go func() {
				for sc.Scan() {
				}
			}()
			return m[1], nil
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return "", fmt.Errorf("%s never printed its listen address", name)
}

func waitFor(limit time.Duration, cond func() (bool, error)) error {
	if limit < time.Second {
		limit = time.Second
	}
	deadline := time.Now().Add(limit)
	for {
		ok, err := cond()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", limit)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func get(url string) (int, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// metricSample extracts one sample value from a Prometheus text page
// (labeled series: pass the fully rendered series name).
func metricSample(page, series string) float64 {
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, series+" "), "%g", &v)
			return v
		}
	}
	return 0
}

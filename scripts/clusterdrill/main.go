// Command clusterdrill is the replica-kill chaos drill for the cluster
// serving tier (wired into scripts/check.sh / make check and CI). It
// exercises the real binaries end to end:
//
//  1. trains a tiny model in-process and writes the envelope artifact,
//  2. builds cmd/serve, cmd/router and cmd/loadgen, starts three
//     replicas on ephemeral ports and the router in front of them,
//  3. sends a probe request through the router and picks the replica
//     that served it as the victim,
//  4. starts a heavy-tailed background load, SIGKILLs the victim
//     mid-load, and requires the run's success rate to stay >= 99% —
//     the router's breakers, retries and failover must mask the death,
//  5. requires the router to mark the victim down
//     (router_replica_state=2) and to have recorded retries/failovers,
//  6. restarts the victim on its old port and requires the router to
//     readmit it (state back to 0 via half-open probes) — the
//     reconvergence half of the drill,
//  7. snapshots the router's /metrics to -artifact (CI uploads it),
//  8. SIGTERMs everything and requires clean drains.
//
// It exits 0 only if every step passes. -short shrinks the load window
// for use in SHORT=1 check runs.
package main

import (
	"bufio"
	"bytes"
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

var short = flag.Bool("short", false, "shrink the load window (for SHORT=1 check runs)")
var artifact = flag.String("artifact", "", "write the final router /metrics snapshot here (empty = skip)")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clusterdrill: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("clusterdrill: PASS")
}

const replicaCount = 3

func run() error {
	dir, err := os.MkdirTemp("", "clusterdrill")
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

	startReplica := func(addr string) (*exec.Cmd, string, error) {
		cmd := exec.Command(bins["serve"], "-addr", addr, "-model", model,
			"-watch", "0", "-cache", "256")
		cmd.Stderr = io.Discard
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, "", err
		}
		if err := cmd.Start(); err != nil {
			return nil, "", err
		}
		base, err := scrapeAddr(stdout, "serve")
		if err != nil {
			cmd.Process.Kill()
			return nil, "", err
		}
		return cmd, base, nil
	}

	step("starting replicas")
	replicas := map[string]*exec.Cmd{}
	var urls []string
	for i := 0; i < replicaCount; i++ {
		cmd, base, err := startReplica("127.0.0.1:0")
		if err != nil {
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
		"-breaker-threshold", "2",
		"-breaker-cooldown", "300ms",
		"-half-open-probes", "2",
		"-retries", "2",
		"-backoff", "10ms",
		"-hedge-after", "250ms",
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

	// 3. Probe request: whoever serves it is (with an all-healthy ring)
	// the shard owner for this pattern — the highest-value victim.
	step("picking a victim")
	probeBody := `{"rows":10,"cols":10,"entries":[[0,0,1],[1,1,1],[2,2,1],[3,3,1],[4,4,1],[5,5,1],[6,6,1],[7,7,1],[8,8,1],[9,9,1]]}`
	hdr, code, err := postJSON(routerURL+"/v1/predict", probeBody)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("probe request: code %d err %v", code, err)
	}
	victim := hdr.Get("X-Served-By")
	if _, ok := replicas[victim]; !ok {
		return fmt.Errorf("X-Served-By %q names no replica", victim)
	}
	fmt.Printf("clusterdrill: victim is %s\n", victim)

	// 4. Background load, then a SIGKILL mid-window.
	loadDur, killAfter := 12*time.Second, 3*time.Second
	if *short {
		loadDur, killAfter = 5*time.Second, 1500*time.Millisecond
	}
	step(fmt.Sprintf("running %s of load, killing victim after %s", loadDur, killAfter))
	report := filepath.Join(dir, "loadgen.json")
	load := exec.Command(bins["loadgen"],
		"-url", routerURL,
		"-duration", loadDur.String(),
		"-concurrency", "6",
		"-matrices", "32",
		"-maxn", "192",
		"-timeout", "10s",
		"-out", report,
	)
	load.Stdout = io.Discard
	load.Stderr = os.Stderr
	if err := load.Start(); err != nil {
		return err
	}
	time.Sleep(killAfter)
	if err := replicas[victim].Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		return err
	}
	replicas[victim].Wait()
	fmt.Println("clusterdrill: victim killed")
	if err := load.Wait(); err != nil {
		return fmt.Errorf("loadgen: %v", err)
	}

	// 5. The SLO: availability through the kill.
	var rep struct {
		Requests    int64   `json:"requests"`
		SuccessRate float64 `json:"success_rate"`
		P99Ms       float64 `json:"p99_ms"`
	}
	data, err := os.ReadFile(report)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return err
	}
	fmt.Printf("clusterdrill: %d requests, success rate %.4f, p99 %.1fms\n", rep.Requests, rep.SuccessRate, rep.P99Ms)
	if rep.Requests < 50 {
		return fmt.Errorf("only %d requests flowed; the drill measured nothing", rep.Requests)
	}
	if rep.SuccessRate < 0.99 {
		return fmt.Errorf("success rate %.4f under a single replica kill, want >= 0.99", rep.SuccessRate)
	}

	// The router must have noticed: victim out of rotation, failovers
	// recorded.
	stateSeries := fmt.Sprintf("router_replica_state{replica=%q}", victim)
	if err := waitFor(10*time.Second, func() (bool, error) {
		_, page, _ := get(routerURL + "/metrics")
		return metricSample(page, stateSeries) == 2, nil
	}); err != nil {
		return fmt.Errorf("router never marked the dead victim down: %w", err)
	}
	_, page, _ := get(routerURL + "/metrics")
	if metricSum(page, "router_retries_total")+metricSample(page, "router_failovers_total") == 0 {
		return fmt.Errorf("kill drill recorded no retries or failovers:\n%s", page)
	}

	// 6. Reconvergence: restart the victim on its old port and wait for
	// the router's half-open probes to readmit it.
	step("restarting victim")
	addr := strings.TrimPrefix(victim, "http://")
	revived, base, err := startReplica(addr)
	if err != nil {
		return fmt.Errorf("restarting victim: %w", err)
	}
	defer revived.Process.Kill()
	if base != victim {
		return fmt.Errorf("revived replica bound %s, want %s", base, victim)
	}
	replicas[victim] = revived
	if err := waitFor(15*time.Second, func() (bool, error) {
		_, page, _ := get(routerURL + "/metrics")
		return metricSample(page, stateSeries) == 0, nil
	}); err != nil {
		return fmt.Errorf("router never readmitted the revived victim: %w", err)
	}
	if _, code, err := postJSONHdr(routerURL+"/v1/predict", probeBody); err != nil || code != http.StatusOK {
		return fmt.Errorf("post-recovery probe: code %d err %v", code, err)
	}
	fmt.Println("clusterdrill: victim readmitted")

	// 7. Metrics artifact for CI.
	if *artifact != "" {
		_, page, err := get(routerURL + "/metrics")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(*artifact), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*artifact, []byte(page), 0o644); err != nil {
			return err
		}
		fmt.Println("clusterdrill: wrote metrics artifact to " + *artifact)
	}

	// 8. Clean drains.
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

func step(msg string) { fmt.Println("clusterdrill:", msg) }

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
		time.Sleep(50 * time.Millisecond)
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

func postJSON(url, body string) (http.Header, int, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.Header, resp.StatusCode, nil
}

func postJSONHdr(url, body string) (http.Header, int, error) { return postJSON(url, body) }

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

// metricSum totals every series of a labeled metric family.
func metricSum(page, name string) float64 {
	var total float64
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, name+"{") {
			continue
		}
		if i := strings.LastIndex(line, " "); i >= 0 {
			var v float64
			fmt.Sscanf(line[i+1:], "%g", &v)
			total += v
		}
	}
	return total
}

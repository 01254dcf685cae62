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
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/drill"
)

var short = flag.Bool("short", false, "shrink the load window (for SHORT=1 check runs)")
var artifact = flag.String("artifact", "", "write the final router /metrics snapshot here (empty = skip)")

func main() { drill.Main("clusterdrill", run) }

const replicaCount = 3

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

	startReplica := func(addr string) (*drill.Proc, error) {
		return d.Start(drill.Child{Bin: "serve", Quiet: true,
			Args: []string{"-addr", addr, "-model", model, "-watch", "0", "-cache", "256"}})
	}

	d.Step("starting replicas")
	replicas := map[string]*drill.Proc{}
	var urls []string
	for i := 0; i < replicaCount; i++ {
		r, err := startReplica("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		replicas[r.URL] = r
		urls = append(urls, r.URL)
	}

	d.Step("starting router in front of " + strings.Join(urls, ", "))
	router, err := d.Start(drill.Child{Bin: "router", Args: []string{
		"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(urls, ","),
		"-probe-interval", "100ms",
		"-probe-timeout", "500ms",
		"-breaker-threshold", "2",
		"-breaker-cooldown", "300ms",
		"-half-open-probes", "2",
		"-retries", "2",
		"-backoff", "10ms",
	}})
	if err != nil {
		return err
	}
	routerURL := router.URL

	d.Step("waiting for router readiness at " + routerURL)
	if err := drill.Ready(15*time.Second, routerURL); err != nil {
		return err
	}

	// 3. Probe request: whoever serves it is (with an all-healthy ring)
	// the shard owner for this pattern — the highest-value victim.
	d.Step("picking a victim")
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
	d.Step(fmt.Sprintf("running %s of load, killing victim after %s", loadDur, killAfter))
	var rep *drill.LoadReport
	loaded := make(chan error, 1)
	go func() {
		var err error
		rep, err = d.Loadgen(
			"-url", routerURL,
			"-duration", loadDur.String(),
			"-concurrency", "6",
			"-matrices", "32",
			"-maxn", "192",
			"-timeout", "10s",
		)
		loaded <- err
	}()
	time.Sleep(killAfter)
	if err := replicas[victim].Kill(); err != nil { // SIGKILL: no drain, no goodbye
		return err
	}
	fmt.Println("clusterdrill: victim killed")
	if err := <-loaded; err != nil {
		return err
	}

	// 5. The SLO: availability through the kill.
	fmt.Printf("clusterdrill: %d requests, success rate %.4f, p99 %.1fms\n", rep.Requests, rep.SuccessRate, rep.P99Ms)
	if rep.Requests < 50 {
		return fmt.Errorf("only %d requests flowed; the drill measured nothing", rep.Requests)
	}
	if rep.SuccessRate < 0.99 {
		return fmt.Errorf("success rate %.4f under a single replica kill, want >= 0.99", rep.SuccessRate)
	}

	// The router must have noticed: victim out of rotation, failovers
	// recorded. The router sets every replica's state series at start, so
	// a page without the victim's is a renamed metric, not a 0.
	stateSeries := fmt.Sprintf("router_replica_state{replica=%q}", victim)
	awaitState := func(limit time.Duration, want float64, what string) error {
		return drill.AwaitValue(limit, what, routerURL+"/metrics", stateSeries, func(v float64) bool { return v == want })
	}
	if err := awaitState(10*time.Second, 2, "router never marked the dead victim down"); err != nil {
		return err
	}
	m, err := drill.Scrape(routerURL + "/metrics")
	if err != nil {
		return err
	}
	// router_retries_total is labelled by reason and has no series until
	// the first retry; router_failovers_total is always rendered.
	retries, _ := m.Sum("router_retries_total")
	failovers, err := m.Value("router_failovers_total")
	if err != nil {
		return err
	}
	if retries+failovers == 0 {
		return fmt.Errorf("kill drill recorded no retries or failovers")
	}

	// 6. Reconvergence: restart the victim on its old port and wait for
	// the router's half-open probes to readmit it.
	d.Step("restarting victim")
	revived, err := startReplica(strings.TrimPrefix(victim, "http://"))
	if err != nil {
		return fmt.Errorf("restarting victim: %w", err)
	}
	if revived.URL != victim {
		return fmt.Errorf("revived replica bound %s, want %s", revived.URL, victim)
	}
	replicas[victim] = revived
	if err := awaitState(15*time.Second, 0, "router never readmitted the revived victim"); err != nil {
		return err
	}
	if _, code, err := postJSON(routerURL+"/v1/predict", probeBody); err != nil || code != http.StatusOK {
		return fmt.Errorf("post-recovery probe: code %d err %v", code, err)
	}
	fmt.Println("clusterdrill: victim readmitted")

	// 7. Metrics artifact for CI.
	if *artifact != "" {
		_, page, err := drill.Get(routerURL + "/metrics")
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
	d.Step("checking graceful shutdown")
	procs := []*drill.Proc{router}
	for _, r := range replicas {
		procs = append(procs, r)
	}
	return drill.Drain(15*time.Second, procs...)
}

func postJSON(url, body string) (http.Header, int, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.Header, resp.StatusCode, nil
}

// Command servesmoke is the CI smoke test for the online inference
// service (wired into scripts/check.sh / make check). It exercises the
// real binaries end to end:
//
//  1. trains a tiny model in-process and writes the envelope artifact,
//  2. builds and starts cmd/serve on an ephemeral port,
//  3. waits for readiness, POSTs a matrix as JSON and as Matrix
//     Market, and checks a valid format comes back,
//  4. checks the repeated request is answered from the cache and that
//     the hit is visible in /metrics, that the -admin-addr listener
//     serves /metrics, /debug/pprof/ and /debug/traces, and that
//     -feedback-dir makes every prediction append to the crash-safe
//     feedback log, visible as feedback_* series in /metrics,
//  5. overwrites the model file and waits for the hot-reload
//     generation bump, then SIGHUPs the server and requires the
//     operator-driven reload to bump the generation again,
//  6. runs cmd/predict in -server client mode against the live server,
//  7. checks cmd/predict -fallback exits non-zero when the model fails
//     to load while still printing the CSR baseline,
//  8. runs the degraded-mode drill: a second server loses its model
//     artifact, repeated SIGHUP reloads are rejected and trip the
//     circuit breaker, and the decision-tree rung keeps answering
//     (rung visible in the response and /metrics),
//  9. SIGTERMs the servers and requires clean drains.
//
// It exits 0 only if every step passes.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/drill"
	"repro/internal/selector"
	"repro/internal/sparse"
)

func main() { drill.Main("servesmoke", run) }

func run(d *drill.D) error {
	mtx := filepath.Join(d.Dir, "example.mtx")

	// 1. Tiny but real training run.
	d.Step("training tiny model")
	sel, model, err := d.TinyModel()
	if err != nil {
		return err
	}

	// An example matrix for the client-mode checks.
	m := sparse.MustCOO(12, 12, diagEntries(12))
	var mb bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mb, m); err != nil {
		return err
	}
	if err := os.WriteFile(mtx, mb.Bytes(), 0o644); err != nil {
		return err
	}

	// 2. Build and start the server.
	d.Step("building binaries")
	if err := d.Build("serve", "predict"); err != nil {
		return err
	}

	d.Step("starting server")
	srv, err := d.Start(drill.Child{Bin: "serve", Args: []string{
		"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0", "-model", model,
		"-watch", "100ms", "-cache", "64", "-feedback-dir", filepath.Join(d.Dir, "feedback")}})
	if err != nil {
		return err
	}
	base, admin := srv.URL, srv.Admin

	// 3. Readiness, then predictions in both body encodings.
	d.Step("waiting for readiness at " + base)
	if err := drill.Ready(15*time.Second, base); err != nil {
		return err
	}
	jsonBody := `{"rows":12,"cols":12,"entries":[` + jsonEntries(12) + `]}`
	format1, cached1, err := postPredict(base, "application/json", jsonBody)
	if err != nil {
		return err
	}
	if cached1 {
		return fmt.Errorf("first prediction claimed to be cached")
	}
	if _, err := sparse.ParseFormat(format1); err != nil {
		return fmt.Errorf("server returned invalid format %q", format1)
	}
	fmt.Printf("servesmoke: predicted %s\n", format1)
	if f, _, err := postPredict(base, "text/matrix-market", mb.String()); err != nil {
		return err
	} else if f != format1 {
		return fmt.Errorf("matrix-market body predicted %s, json predicted %s", f, format1)
	}

	// 4. Cache hit on the identical pattern, visible in /metrics.
	d.Step("checking cache")
	format2, cached2, err := postPredict(base, "application/json", jsonBody)
	if err != nil {
		return err
	}
	if !cached2 || format2 != format1 {
		return fmt.Errorf("repeat request: cached=%v format=%s (want cached %s)", cached2, format2, format1)
	}
	page, err := drill.Scrape(base + "/metrics")
	if err != nil {
		return err
	}
	if hits, err := page.Value("serve_cache_hits_total"); err != nil || hits < 1 {
		return fmt.Errorf("/metrics does not show cache hits (%v, err %v)", hits, err)
	}

	// 4b. Admin plane: metrics, the pprof index, and the trace ring all
	// answer on the separate -admin-addr listener.
	d.Step("checking admin endpoints at " + admin)
	if page, err = drill.Scrape(admin + "/metrics"); err != nil {
		return err
	}
	for _, want := range []string{"serve_requests_total", "process_goroutines"} {
		if _, n := page.Sum(want); n == 0 {
			return fmt.Errorf("admin /metrics missing %s", want)
		}
	}
	if _, body, err := drill.Get(admin + "/debug/pprof/"); err != nil || !strings.Contains(body, "goroutine") {
		return fmt.Errorf("admin /debug/pprof/ not serving profiles: %v", err)
	}
	if _, body, err := drill.Get(admin + "/debug/traces"); err != nil || !strings.Contains(body, `"spans"`) {
		return fmt.Errorf("admin /debug/traces has no recorded traces: %v\n%s", err, body)
	}

	// 4c. Feedback capture: the predictions above (including the cache
	// hit) must have been appended to the feedback log, and the logger's
	// series must be visible in /metrics.
	d.Step("checking feedback capture metrics")
	if err := drill.AwaitValue(10*time.Second, "feedback_entries_total never counted the predictions",
		base+"/metrics", "feedback_entries_total", func(n float64) bool { return n >= 1 }); err != nil {
		return err
	}
	if page, err = drill.Scrape(base + "/metrics"); err != nil {
		return err
	}
	for _, want := range []string{"feedback_entries_total", "feedback_active_bytes", "feedback_dropped_total"} {
		if _, n := page.Sum(want); n == 0 {
			return fmt.Errorf("/metrics missing feedback series %s", want)
		}
	}

	// 5. Hot reload: overwrite the model file, watch the generation.
	d.Step("checking hot reload")
	if err := sel.SaveFile(model); err != nil {
		return err
	}
	if err := drill.AwaitValue(10*time.Second, "model overwrite was never hot-reloaded", base+"/metrics",
		"serve_model_generation", func(gen float64) bool { return gen == 2 }); err != nil {
		return err
	}

	// 5b. Operator-driven reload: SIGHUP must force a reload of the
	// (unchanged) artifact and bump the generation counter again.
	d.Step("checking SIGHUP hot reload")
	if err := srv.Signal(syscall.SIGHUP); err != nil {
		return err
	}
	if err := drill.AwaitValue(10*time.Second, "SIGHUP never bumped the model generation", base+"/metrics",
		"serve_model_generation", func(gen float64) bool { return gen == 3 }); err != nil {
		return err
	}

	// 6. Thin-client mode against the live server.
	d.Step("checking predict -server client mode")
	out, err := d.Run("predict", nil, "-server", base, mtx)
	if err != nil {
		return fmt.Errorf("predict -server: %v\n%s", err, out)
	}
	clientFormat := strings.Fields(out)[0]
	if _, err := sparse.ParseFormat(clientFormat); err != nil {
		return fmt.Errorf("predict -server printed %q", clientFormat)
	}

	// 7. Fallback masking fix: a missing model must fail the exit code
	// even though -fallback prints the CSR baseline.
	d.Step("checking predict -fallback exit code on missing model")
	out, err = d.Run("predict", nil, "-model", filepath.Join(d.Dir, "missing.gob"), "-fallback", mtx)
	if err == nil {
		return fmt.Errorf("predict -fallback with a missing model exited 0\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		return fmt.Errorf("predict -fallback: %v, want exit code 1\n%s", err, out)
	}
	if !strings.HasPrefix(out, selector.FallbackFormat.String()) {
		return fmt.Errorf("predict -fallback did not print the baseline:\n%s", out)
	}

	// 8. Degraded-mode drill: a second server loses its model artifact.
	// Each SIGHUP reload is rejected (the file is gone), consecutive
	// rejections trip the breaker, and the decision-tree rung answers —
	// the cooldown is long enough that no half-open probe can sneak the
	// CNN back mid-assertion.
	d.Step("degraded-mode drill: killing the model artifact")
	model2 := filepath.Join(d.Dir, "model2.gob")
	if err := sel.SaveFile(model2); err != nil {
		return err
	}
	srv2, err := d.Start(drill.Child{Bin: "serve", Args: []string{"-addr", "127.0.0.1:0", "-model", model2,
		"-watch", "0", "-cache", "0", "-breaker-threshold", "3", "-breaker-cooldown", "5m"}})
	if err != nil {
		return err
	}
	base2 := srv2.URL
	if err := drill.Ready(15*time.Second, base2); err != nil {
		return err
	}
	r, err := postPredictFull(base2, "application/json", jsonBody)
	if err != nil {
		return err
	}
	if r.Rung != "cnn" || r.FellBack {
		return fmt.Errorf("healthy drill server answered rung=%q fell_back=%v, want cnn", r.Rung, r.FellBack)
	}
	if err := os.Remove(model2); err != nil {
		return err
	}
	for i := 1; i <= 3; i++ {
		if err := srv2.Signal(syscall.SIGHUP); err != nil {
			return err
		}
		what := fmt.Sprintf("reload failure %d never surfaced in /metrics", i)
		if err := drill.AwaitValue(10*time.Second, what, base2+"/metrics",
			"serve_model_reload_failures_total", func(n float64) bool { return n == float64(i) }); err != nil {
			return err
		}
	}
	r, err = postPredictFull(base2, "application/json", jsonBody)
	if err != nil {
		return err
	}
	if r.Rung != "dtree" || !r.FellBack {
		return fmt.Errorf("degraded server answered rung=%q fell_back=%v, want dtree fallback", r.Rung, r.FellBack)
	}
	fmt.Printf("servesmoke: degraded prediction %s from rung %s\n", r.Format, r.Rung)
	if page, err = drill.Scrape(base2 + "/metrics"); err != nil {
		return err
	}
	if n, err := page.Value(`serve_rung_total{rung="dtree"}`); err != nil || n < 1 {
		return fmt.Errorf("/metrics does not count the dtree rung (%v, err %v)", n, err)
	}
	if state, err := page.Value("serve_breaker_state"); err != nil || state != 1 {
		return fmt.Errorf("/metrics does not show the breaker open (%v, err %v)", state, err)
	}

	// 9. Graceful drains on SIGTERM.
	d.Step("checking graceful shutdown")
	return drill.Drain(15*time.Second, srv, srv2)
}

func diagEntries(n int) []sparse.Entry {
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		es = append(es, sparse.Entry{Row: i, Col: i, Val: 2})
		if i+1 < n {
			es = append(es, sparse.Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	return es
}

func jsonEntries(n int) string {
	var parts []string
	for _, e := range diagEntries(n) {
		parts = append(parts, fmt.Sprintf("[%d,%d,%g]", e.Row, e.Col, e.Val))
	}
	return strings.Join(parts, ",")
}

// predictResult is the subset of the predict response the smoke needs.
type predictResult struct {
	Format   string `json:"format"`
	FellBack bool   `json:"fell_back"`
	Reason   string `json:"reason"`
	Cached   bool   `json:"cached"`
	Rung     string `json:"rung"`
}

// postPredictFull sends one prediction request, expecting 200.
func postPredictFull(base, contentType, body string) (predictResult, error) {
	var r predictResult
	resp, err := http.Post(base+"/v1/predict", contentType, strings.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("predict returned %s: %s", resp.Status, data)
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bad response %q: %v", data, err)
	}
	return r, nil
}

// postPredict is postPredictFull for steps that require a healthy
// (non-fallback) answer: it returns (format, cached).
func postPredict(base, contentType, body string) (string, bool, error) {
	r, err := postPredictFull(base, contentType, body)
	if err != nil {
		return "", false, err
	}
	if r.FellBack {
		return "", false, fmt.Errorf("prediction fell back: %s", r.Reason)
	}
	return r.Format, r.Cached, nil
}

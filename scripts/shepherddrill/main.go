// Command shepherddrill is the continual-learning fire drill for the
// serve→retrain→redeploy loop (wired into scripts/check.sh / make
// check and CI). It exercises the real binaries end to end:
//
//  1. builds a narrow banded-family training corpus, trains a tiny
//     model on it and saves both artifacts,
//  2. builds cmd/serve and cmd/shepherd, starts a replica with
//     feedback capture + shadow mirroring and the shepherd supervising
//     it with the training corpus as drift baseline,
//  3. replays the training corpus as baseline traffic and requires the
//     drift detector to stay quiet,
//  4. switches to a shifted workload (large random-scatter matrices the
//     corpus never saw) flowing continuously in the background — every
//     response must stay 200 with a valid format the whole drill, which
//     is the proof that shadow evaluation never touches a response,
//  5. requires the loop to close on its own: drift confirmed →
//     top-evolvement retrain → candidate shadow-loaded and mirrored on
//     live traffic → promotion via the watcher's probe-validated hot
//     reload (serve_model_generation >= 2) — all journaled in order,
//  6. snapshots the shepherd's scorecard.json to -artifact,
//  7. re-runs the loop with SHEPHERD_FAULT_INJECT corrupting the
//     retrained candidate and requires the serving tier to reject it
//     (journal says candidate-rejected, generation stays 1, traffic
//     stays healthy),
//  8. SIGTERMs everything and requires clean drains.
//
// It exits 0 only if every step passes. -short shrinks corpus and
// window sizes for SHORT=1 check runs.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feedback"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

var short = flag.Bool("short", false, "shrink the drill (for SHORT=1 check runs)")
var artifact = flag.String("artifact", "", "write the final shepherd scorecard JSON here (empty = skip)")

const (
	platform = "xeonlike"
	labSeed  = 7
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shepherddrill: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("shepherddrill: PASS")
}

func run() error {
	dir, err := os.MkdirTemp("", "shepherddrill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	corpusN := 140
	if *short {
		corpusN = 100
	}

	// 1. A deliberately narrow training corpus: banded matrices only, so
	// the drift baseline has tight feature spreads and the shifted
	// workload later is unambiguously out of distribution.
	step("building banded training corpus")
	p, err := machine.PlatformByName(platform)
	if err != nil {
		return err
	}
	lab := machine.NewLabeler(p, labSeed)
	train := &dataset.Dataset{Platform: p.Name, Formats: lab.Formats}
	rng := rand.New(rand.NewSource(labSeed))
	for i := 0; i < corpusN; i++ {
		spec := synthgen.Spec{
			Family: synthgen.FamilyBanded,
			N:      48 + rng.Intn(33), // n in [48, 80]: patterns stay under the capture cap
			Band:   2 + rng.Intn(3),
			Fill:   0.85 + 0.1*rng.Float64(),
			Seed:   int64(i + 1),
		}
		m := synthgen.Build(spec)
		st := sparse.ComputeStats(m)
		label, times := lab.Label(st, uint64(i))
		train.Records = append(train.Records, dataset.Record{
			ID: uint64(i), Spec: spec, Stats: st, Label: label, Times: times,
		})
	}
	trainPath := filepath.Join(dir, "train.store")
	if _, err := dataset.WriteStore(trainPath, train, 32); err != nil {
		return err
	}

	step("training tiny model on it")
	epochs := 3
	if *short {
		epochs = 2
	}
	model := filepath.Join(dir, "model.gob")
	res, err := core.Train(core.Options{
		Platform: platform, DatasetPath: trainPath,
		Epochs: epochs, RepSize: 16, RepBins: 8, Seed: labSeed,
	})
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	if err := res.Selector.SaveFile(model); err != nil {
		return err
	}

	step("building binaries")
	bins := map[string]string{}
	for _, name := range []string{"serve", "shepherd"} {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	bodies := corpusBodies(train)

	// Leg 1: the full happy path — drift, retrain, shadow, promote.
	if err := happyLeg(dir, bins, model, trainPath, bodies); err != nil {
		return fmt.Errorf("happy path: %w", err)
	}

	// Leg 2: same loop, but fault injection corrupts the retrained
	// candidate — the probe-validated shadow load must reject it and
	// the live model must keep serving.
	if err := corruptLeg(dir, bins, model, trainPath); err != nil {
		return fmt.Errorf("corrupt-candidate path: %w", err)
	}
	return nil
}

// procs is one serve+shepherd pair with its scrape-derived endpoints.
type procs struct {
	serve, shepherd   *exec.Cmd
	serveURL          string // traffic
	adminURL          string // serve admin (shadow control + metrics)
	shepMetricsURL    string
	workDir, feedback string
}

// start boots a serve replica and a shepherd supervising it.
// shepherdEnv entries are appended to the shepherd's environment.
func start(dir string, bins map[string]string, model, trainPath, tag string, shepherdEnv []string) (*procs, error) {
	pr := &procs{
		workDir:  filepath.Join(dir, "work-"+tag),
		feedback: filepath.Join(dir, "feedback-"+tag),
	}
	if err := os.MkdirAll(pr.feedback, 0o755); err != nil {
		return nil, err
	}

	serve := exec.Command(bins["serve"],
		"-addr", "127.0.0.1:0",
		"-admin-addr", "127.0.0.1:0",
		"-model", model,
		"-watch", "100ms",
		"-cache", "512",
		"-feedback-dir", pr.feedback,
		"-feedback-segment-age", "250ms",
		"-shadow-sample", "1",
	)
	serve.Stderr = io.Discard
	sout, err := serve.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := serve.Start(); err != nil {
		return nil, err
	}
	pr.serve = serve
	got, err := scrapeLines(sout, map[string]*regexp.Regexp{
		"admin":   regexp.MustCompile(`serve: admin listening on (http://\S+)`),
		"traffic": regexp.MustCompile(`serve: listening on (http://\S+)`),
	})
	if err != nil {
		serve.Process.Kill()
		return nil, err
	}
	pr.adminURL, pr.serveURL = got["admin"], got["traffic"]

	minRecords, window := "48", "12"
	if *short {
		minRecords = "36"
	}
	shep := exec.Command(bins["shepherd"],
		"-work", pr.workDir,
		"-model", model,
		"-admin", pr.adminURL,
		"-feedback-dir", pr.feedback,
		"-train-dataset", trainPath,
		"-platform", platform,
		"-seed", fmt.Sprint(labSeed),
		"-interval", "150ms",
		"-window", window,
		"-trip-after", "2",
		"-clear-after", "2",
		// A tiny drill model's prediction mix never matches the oracle
		// label mix (that is an accuracy problem, not drift), so the mix
		// signal is disabled (TV distance cannot exceed 1) and the
		// feature-shift signal carries the drill.
		"-mix-threshold", "1.1",
		"-feature-threshold", "2.0",
		"-rung-threshold", "0.9",
		"-min-records", minRecords,
		"-retrain-epochs", "2",
		"-shadow-min-samples", "8",
		"-promote-timeout", "30s",
		"-metrics-addr", "127.0.0.1:0",
	)
	shep.Env = append(os.Environ(), shepherdEnv...)
	shep.Stderr = os.Stderr
	shout, err := shep.StdoutPipe()
	if err != nil {
		serve.Process.Kill()
		return nil, err
	}
	if err := shep.Start(); err != nil {
		serve.Process.Kill()
		return nil, err
	}
	pr.shepherd = shep
	got, err = scrapeLines(shout, map[string]*regexp.Regexp{
		"metrics": regexp.MustCompile(`shepherd: metrics listening on (http://\S+)`),
	})
	if err != nil {
		serve.Process.Kill()
		shep.Process.Kill()
		return nil, err
	}
	pr.shepMetricsURL = got["metrics"]
	return pr, nil
}

func (pr *procs) kill() {
	if pr.serve != nil {
		pr.serve.Process.Kill()
	}
	if pr.shepherd != nil {
		pr.shepherd.Process.Kill()
	}
}

// drain SIGTERMs both processes and requires clean exits.
func (pr *procs) drain() error {
	for name, proc := range map[string]*exec.Cmd{"serve": pr.serve, "shepherd": pr.shepherd} {
		if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
	}
	for name, proc := range map[string]*exec.Cmd{"serve": pr.serve, "shepherd": pr.shepherd} {
		done := make(chan error, 1)
		go func() { done <- proc.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				return fmt.Errorf("%s exited uncleanly after SIGTERM: %v", name, err)
			}
		case <-time.After(20 * time.Second):
			return fmt.Errorf("%s did not drain within 20s of SIGTERM", name)
		}
	}
	return nil
}

func happyLeg(dir string, bins map[string]string, model, trainPath string, bodies [][]byte) error {
	step("starting serve + shepherd (happy path)")
	pr, err := start(dir, bins, model, trainPath, "happy", nil)
	if err != nil {
		return err
	}
	defer pr.kill()

	if err := waitReady(pr.serveURL); err != nil {
		return err
	}

	// 3. Baseline traffic: replay the training corpus. The detector must
	// stay quiet — this is the distribution it was profiled on.
	step(fmt.Sprintf("sending %d baseline requests (training distribution)", len(bodies)))
	for i, b := range bodies {
		if err := post(pr.serveURL, b); err != nil {
			return fmt.Errorf("baseline request %d: %w", i, err)
		}
	}
	// Let the rotation + fold pipeline catch up, then check no drift.
	if err := waitFor(20*time.Second, func() (bool, error) {
		vals, err := scrape(pr.shepMetricsURL + "/metrics")
		if err != nil {
			return false, nil
		}
		return vals["feedback_shepherd_corpus_records"] >= float64(len(bodies))*0.8, nil
	}); err != nil {
		return fmt.Errorf("baseline feedback never reached the online corpus: %w", err)
	}
	vals, err := scrape(pr.shepMetricsURL + "/metrics")
	if err != nil {
		return err
	}
	if vals["feedback_drift_state"] != 0 {
		return fmt.Errorf("drift state %v after in-distribution traffic, want 0 (stable)", vals["feedback_drift_state"])
	}
	sv, err := scrape(pr.adminURL + "/metrics")
	if err != nil {
		return err
	}
	if sv["feedback_entries_total"] < float64(len(bodies)) {
		return fmt.Errorf("feedback_entries_total = %v after %d requests", sv["feedback_entries_total"], len(bodies))
	}
	step("baseline clean: drift state stable, corpus folded")

	// 4. Shifted workload in the background. Every response must stay
	// healthy for the rest of the leg — shadow mirroring included.
	step("starting shifted workload (out-of-distribution)")
	stop := make(chan struct{})
	var reqs, failures atomic.Int64
	var firstFail atomic.Value
	go func() {
		r := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := post(pr.serveURL, shiftedBody(r)); err != nil {
				failures.Add(1)
				firstFail.CompareAndSwap(nil, err)
			}
			reqs.Add(1)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	defer close(stop)

	// 5. The loop must close by itself. Stages are asserted in order so
	// a hang points at the broken stage.
	step("waiting for drift to be confirmed")
	if err := waitFor(90*time.Second, func() (bool, error) {
		vals, err := scrape(pr.shepMetricsURL + "/metrics")
		if err != nil {
			return false, nil
		}
		return vals["feedback_shepherd_retrains_total"] >= 1 || vals["feedback_drift_state"] == 2, nil
	}); err != nil {
		return fmt.Errorf("drift never confirmed under shifted load: %w", err)
	}
	step("drift confirmed; waiting for retrain + shadow traffic")
	if err := waitFor(120*time.Second, func() (bool, error) {
		sv, err := scrape(pr.adminURL + "/metrics")
		if err != nil {
			return false, nil
		}
		return sv["serve_shadow_requests_total"] >= 1, nil
	}); err != nil {
		return fmt.Errorf("candidate never mirrored live traffic: %w", err)
	}
	step("candidate shadowing live traffic; waiting for promotion")
	if err := waitFor(120*time.Second, func() (bool, error) {
		sv, err := scrape(pr.adminURL + "/metrics")
		if err != nil {
			return false, nil
		}
		shv, err := scrape(pr.shepMetricsURL + "/metrics")
		if err != nil {
			return false, nil
		}
		return sv["serve_model_generation"] >= 2 && shv["feedback_shepherd_promotions_total"] >= 1, nil
	}); err != nil {
		return fmt.Errorf("candidate was never promoted: %w", err)
	}
	step("candidate promoted through hot reload")

	// Traffic stayed healthy through shadow + promotion.
	if n := failures.Load(); n > 0 {
		return fmt.Errorf("%d/%d shifted requests failed (first: %v) — shadowing leaked into responses",
			n, reqs.Load(), firstFail.Load())
	}
	if reqs.Load() < 50 {
		return fmt.Errorf("only %d shifted requests flowed; the drill measured nothing", reqs.Load())
	}
	fmt.Printf("shepherddrill: %d shifted requests, 0 failures\n", reqs.Load())

	// The journal must show the machine walking the full cycle. The
	// promotion counter moves before the closing transition is journaled
	// (the shepherd rebases the detector on the on-disk online corpus in
	// between), so the last entry gets a moment to land.
	var entries []feedback.JournalEntry
	var cycleErr error
	if err := waitFor(10*time.Second, func() (bool, error) {
		var err error
		if entries, err = feedback.ReadJournal(filepath.Join(pr.workDir, "journal.jsonl")); err != nil {
			return false, err
		}
		cycleErr = expectJournalCycle(entries)
		return cycleErr == nil, nil
	}); err != nil {
		return errors.Join(err, cycleErr)
	}
	var promoted bool
	for _, e := range entries {
		if e.To == feedback.StateObserving && strings.HasPrefix(e.Reason, "promoted") {
			promoted = true
		}
	}
	if !promoted {
		return fmt.Errorf("journal records no promotion: %+v", entries)
	}

	// 6. Scorecard artifact.
	card, err := os.ReadFile(filepath.Join(pr.workDir, "scorecard.json"))
	if err != nil {
		return fmt.Errorf("shepherd wrote no scorecard: %w", err)
	}
	var sc feedback.Scorecard
	if err := json.Unmarshal(card, &sc); err != nil {
		return fmt.Errorf("scorecard does not parse: %w", err)
	}
	if *artifact != "" {
		if err := os.MkdirAll(filepath.Dir(*artifact), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*artifact, card, 0o644); err != nil {
			return err
		}
		fmt.Println("shepherddrill: wrote scorecard artifact to " + *artifact)
	}

	// 8 (first half). Clean drains.
	step("checking graceful shutdown")
	return pr.drain()
}

func corruptLeg(dir string, bins map[string]string, model, trainPath string) error {
	step("starting serve + shepherd (corrupt-candidate path)")
	pr, err := start(dir, bins, model, trainPath, "corrupt",
		[]string{"SHEPHERD_FAULT_INJECT=shepherd.candidate.corrupt:1"})
	if err != nil {
		return err
	}
	defer pr.kill()
	if err := waitReady(pr.serveURL); err != nil {
		return err
	}

	// Shifted traffic from the start: the promoted leg-1 model never
	// trained on banded data, and more to the point the leg-2 baseline
	// profile is still the banded corpus — drift trips, a retrain runs,
	// and fault injection corrupts the candidate artifact.
	stop := make(chan struct{})
	var failures atomic.Int64
	var firstFail atomic.Value
	go func() {
		r := rand.New(rand.NewSource(1234))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := post(pr.serveURL, shiftedBody(r)); err != nil {
				failures.Add(1)
				firstFail.CompareAndSwap(nil, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	defer close(stop)

	step("waiting for the corrupted candidate to be rejected")
	journal := filepath.Join(pr.workDir, "journal.jsonl")
	if err := waitFor(180*time.Second, func() (bool, error) {
		entries, err := feedback.ReadJournal(journal)
		if err != nil {
			return false, nil
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Reason, "candidate-rejected") {
				return true, nil
			}
		}
		return false, nil
	}); err != nil {
		return fmt.Errorf("corrupted candidate was never rejected: %w", err)
	}

	// The rejection must have left the live model untouched and serving.
	sv, err := scrape(pr.adminURL + "/metrics")
	if err != nil {
		return err
	}
	if sv["serve_model_generation"] != 1 {
		return fmt.Errorf("model generation %v after corrupt candidate, want 1 (no promotion)", sv["serve_model_generation"])
	}
	if sv["serve_shadow_rejects_total"] < 1 {
		return fmt.Errorf("serve_shadow_rejects_total = %v, want >= 1", sv["serve_shadow_rejects_total"])
	}
	shv, err := scrape(pr.shepMetricsURL + "/metrics")
	if err != nil {
		return err
	}
	if shv["feedback_shepherd_rejections_total"] < 1 {
		return fmt.Errorf("feedback_shepherd_rejections_total = %v, want >= 1", shv["feedback_shepherd_rejections_total"])
	}
	if n := failures.Load(); n > 0 {
		return fmt.Errorf("%d requests failed during the corrupt-candidate drill (first: %v)", n, firstFail.Load())
	}
	step("corrupt candidate rejected; live model kept serving")

	step("checking graceful shutdown")
	return pr.drain()
}

// expectJournalCycle asserts the To-state sequence contains the ordered
// cycle observing→retraining→shadowing→promoting→observing.
func expectJournalCycle(entries []feedback.JournalEntry) error {
	want := []string{
		feedback.StateRetraining,
		feedback.StateShadowing,
		feedback.StatePromoting,
		feedback.StateObserving,
	}
	i := 0
	for _, e := range entries {
		if i < len(want) && e.To == want[i] {
			i++
		}
	}
	if i != len(want) {
		return fmt.Errorf("journal lacks the full cycle (matched %d/%d stages): %+v", i, len(want), entries)
	}
	return nil
}

// corpusBodies renders every training-corpus matrix as a predict body.
func corpusBodies(d *dataset.Dataset) [][]byte {
	var out [][]byte
	for i := range d.Records {
		out = append(out, matrixBody(d.Records[i].Matrix()))
	}
	return out
}

// shiftedBody builds one out-of-distribution matrix: a large random
// scatter — dimensions, diagonal count and row spread all far outside
// the banded training profile — unique per call so it always misses
// the cache and flows through the worker (and shadow) path.
func shiftedBody(r *rand.Rand) []byte {
	n := 200 + r.Intn(57)
	var req struct {
		Rows    int          `json:"rows"`
		Cols    int          `json:"cols"`
		Entries [][3]float64 `json:"entries"`
	}
	req.Rows, req.Cols = n, n
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			req.Entries = append(req.Entries, [3]float64{float64(i), float64(r.Intn(n)), 1})
		}
	}
	b, _ := json.Marshal(req)
	return b
}

func matrixBody(m *sparse.COO) []byte {
	rows, cols := m.Dims()
	var req struct {
		Rows    int          `json:"rows"`
		Cols    int          `json:"cols"`
		Entries [][3]float64 `json:"entries"`
	}
	req.Rows, req.Cols = rows, cols
	for i := range m.Rows {
		req.Entries = append(req.Entries, [3]float64{float64(m.Rows[i]), float64(m.Cols[i]), 1})
	}
	b, _ := json.Marshal(req)
	return b
}

func step(msg string) { fmt.Println("shepherddrill:", msg) }

// scrapeLines reads a child's stdout until every pattern has matched
// (first capture group kept), then keeps draining the pipe so the
// child never blocks on a full pipe buffer.
func scrapeLines(rd io.Reader, want map[string]*regexp.Regexp) (map[string]string, error) {
	sc := bufio.NewScanner(rd)
	got := map[string]string{}
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		for key, re := range want {
			if _, ok := got[key]; ok {
				continue
			}
			if m := re.FindStringSubmatch(line); m != nil {
				got[key] = m[1]
			}
		}
		if len(got) == len(want) {
			go func() {
				for sc.Scan() {
				}
			}()
			return got, nil
		}
		if time.Now().After(deadline) {
			break
		}
	}
	missing := []string{}
	for key := range want {
		if _, ok := got[key]; !ok {
			missing = append(missing, key)
		}
	}
	return nil, fmt.Errorf("child never printed: %s", strings.Join(missing, ", "))
}

func waitReady(base string) error {
	return waitFor(20*time.Second, func() (bool, error) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false, nil
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK, nil
	})
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
		time.Sleep(100 * time.Millisecond)
	}
}

// post sends one predict request and fails unless it answers 200 with
// a parseable format — the leg-long health invariant.
func post(base string, body []byte) error {
	resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("bad predict body %q: %v", data, err)
	}
	if _, err := sparse.ParseFormat(out.Format); err != nil {
		return err
	}
	return nil
}

// scrape fetches and parses a Prometheus text page.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseMetrics(resp.Body)
}

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
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drill"
	"repro/internal/feedback"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

var short = flag.Bool("short", false, "shrink the drill (for SHORT=1 check runs)")
var artifact = flag.String("artifact", "", "write the final shepherd scorecard JSON here (empty = skip)")

const (
	platform = "xeonlike"
	labSeed  = 7
)

func main() { drill.Main("shepherddrill", run) }

func run(d *drill.D) error {
	corpusN := 140
	if *short {
		corpusN = 100
	}

	// 1. A deliberately narrow training corpus: banded matrices only, so
	// the drift baseline has tight feature spreads and the shifted
	// workload later is unambiguously out of distribution.
	d.Step("building banded training corpus")
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
	trainPath := filepath.Join(d.Dir, "train.store")
	if _, err := dataset.WriteStore(trainPath, train, 32); err != nil {
		return err
	}

	d.Step("training tiny model on it")
	epochs := 3
	if *short {
		epochs = 2
	}
	model := filepath.Join(d.Dir, "model.gob")
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

	d.Step("building binaries")
	if err := d.Build("serve", "shepherd"); err != nil {
		return err
	}

	bodies := corpusBodies(train)

	// Leg 1: the full happy path — drift, retrain, shadow, promote.
	if err := happyLeg(d, model, trainPath, bodies); err != nil {
		return fmt.Errorf("happy path: %w", err)
	}

	// Leg 2: same loop, but fault injection corrupts the retrained
	// candidate — the probe-validated shadow load must reject it and
	// the live model must keep serving.
	if err := corruptLeg(d, model, trainPath); err != nil {
		return fmt.Errorf("corrupt-candidate path: %w", err)
	}
	return nil
}

// procs is one serve+shepherd pair: serve.URL takes traffic, serve.Admin
// is shadow control + metrics, shepherd.Metrics the supervisor's page.
type procs struct {
	serve, shepherd *drill.Proc
	workDir         string
}

// start boots a serve replica and, once it is ready, a shepherd
// supervising it. shepherdEnv entries are appended to the shepherd's
// environment.
func start(d *drill.D, model, trainPath, tag string, shepherdEnv []string) (*procs, error) {
	pr := &procs{workDir: filepath.Join(d.Dir, "work-"+tag)}
	feedbackDir := filepath.Join(d.Dir, "feedback-"+tag)
	if err := os.MkdirAll(feedbackDir, 0o755); err != nil {
		return nil, err
	}

	var err error
	pr.serve, err = d.Start(drill.Child{Bin: "serve", Quiet: true, Args: []string{
		"-addr", "127.0.0.1:0",
		"-admin-addr", "127.0.0.1:0",
		"-model", model,
		"-watch", "100ms",
		"-cache", "512",
		"-feedback-dir", feedbackDir,
		"-feedback-segment-age", "250ms",
		"-shadow-sample", "1",
	}})
	if err != nil {
		return nil, err
	}

	minRecords, window := "48", "12"
	if *short {
		minRecords = "36"
	}
	pr.shepherd, err = d.Start(drill.Child{Bin: "shepherd", Env: shepherdEnv, Args: []string{
		"-work", pr.workDir,
		"-model", model,
		"-admin", pr.serve.Admin,
		"-feedback-dir", feedbackDir,
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
	}})
	if err != nil {
		return nil, err
	}
	return pr, drill.Ready(20*time.Second, pr.serve.URL)
}

// value reads one series the page at url must have.
func value(url, series string) (float64, error) {
	m, err := drill.Scrape(url)
	if err != nil {
		return 0, err
	}
	return m.Value(series)
}

func happyLeg(d *drill.D, model, trainPath string, bodies [][]byte) error {
	d.Step("starting serve + shepherd (happy path)")
	pr, err := start(d, model, trainPath, "happy", nil)
	if err != nil {
		return err
	}
	serveURL, serveMetrics, shepMetrics := pr.serve.URL, pr.serve.Admin+"/metrics", pr.shepherd.Metrics+"/metrics"

	// 3. Baseline traffic: replay the training corpus. The detector must
	// stay quiet — this is the distribution it was profiled on.
	d.Step(fmt.Sprintf("sending %d baseline requests (training distribution)", len(bodies)))
	for i, b := range bodies {
		if err := post(serveURL, b); err != nil {
			return fmt.Errorf("baseline request %d: %w", i, err)
		}
	}
	// Let the rotation + fold pipeline catch up, then check no drift.
	if err := drill.AwaitValue(20*time.Second, "baseline feedback never reached the online corpus", shepMetrics,
		"feedback_shepherd_corpus_records", func(n float64) bool { return n >= float64(len(bodies))*0.8 }); err != nil {
		return err
	}
	state, err := value(shepMetrics, "feedback_drift_state")
	if err != nil {
		return err
	}
	if state != 0 {
		return fmt.Errorf("drift state %v after in-distribution traffic, want 0 (stable)", state)
	}
	logged, err := value(serveMetrics, "feedback_entries_total")
	if err != nil {
		return err
	}
	if logged < float64(len(bodies)) {
		return fmt.Errorf("feedback_entries_total = %v after %d requests", logged, len(bodies))
	}
	d.Step("baseline clean: drift state stable, corpus folded")

	// 4. Shifted workload in the background. Every response must stay
	// healthy for the rest of the leg — shadow mirroring included.
	d.Step("starting shifted workload (out-of-distribution)")
	load := startShifted(serveURL, 99)
	defer close(load.stop)

	// 5. The loop must close by itself. Stages are asserted in order so
	// a hang points at the broken stage.
	d.Step("waiting for drift to be confirmed")
	if err := drill.Await(90*time.Second, "drift never confirmed under shifted load", func() (bool, error) {
		m, err := drill.Scrape(shepMetrics)
		if err != nil {
			return false, nil
		}
		retrains, err := m.Value("feedback_shepherd_retrains_total")
		if err != nil {
			return false, err
		}
		state, err := m.Value("feedback_drift_state")
		return retrains >= 1 || state == 2, err
	}); err != nil {
		return err
	}
	d.Step("drift confirmed; waiting for retrain + shadow traffic")
	if err := drill.AwaitValue(120*time.Second, "candidate never mirrored live traffic", serveMetrics,
		"serve_shadow_requests_total", func(n float64) bool { return n >= 1 }); err != nil {
		return err
	}
	d.Step("candidate shadowing live traffic; waiting for promotion")
	// Both counters only rise, so waiting for one and then the other
	// against one deadline is waiting for both.
	promoteBy := time.Now().Add(120 * time.Second)
	if err := drill.AwaitValue(time.Until(promoteBy), "candidate was never promoted", serveMetrics,
		"serve_model_generation", func(gen float64) bool { return gen >= 2 }); err != nil {
		return err
	}
	if err := drill.AwaitValue(time.Until(promoteBy), "candidate was never promoted", shepMetrics,
		"feedback_shepherd_promotions_total", func(n float64) bool { return n >= 1 }); err != nil {
		return err
	}
	d.Step("candidate promoted through hot reload")

	// Traffic stayed healthy through shadow + promotion.
	if n := load.failures.Load(); n > 0 {
		return fmt.Errorf("%d/%d shifted requests failed (first: %v) — shadowing leaked into responses",
			n, load.reqs.Load(), load.firstFail.Load())
	}
	if load.reqs.Load() < 50 {
		return fmt.Errorf("only %d shifted requests flowed; the drill measured nothing", load.reqs.Load())
	}
	fmt.Printf("shepherddrill: %d shifted requests, 0 failures\n", load.reqs.Load())

	// The journal must show the machine walking the full cycle. The
	// promotion counter moves before the closing transition is journaled
	// (the shepherd rebases the detector on the on-disk online corpus in
	// between), so the last entry gets a moment to land.
	var entries []feedback.JournalEntry
	var cycleErr error
	if err := drill.Await(10*time.Second, "journal never showed the full cycle", func() (bool, error) {
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
	d.Step("checking graceful shutdown")
	return drill.Drain(20*time.Second, pr.serve, pr.shepherd)
}

func corruptLeg(d *drill.D, model, trainPath string) error {
	d.Step("starting serve + shepherd (corrupt-candidate path)")
	pr, err := start(d, model, trainPath, "corrupt",
		[]string{"SHEPHERD_FAULT_INJECT=shepherd.candidate.corrupt:1"})
	if err != nil {
		return err
	}

	// Shifted traffic from the start: the promoted leg-1 model never
	// trained on banded data, and more to the point the leg-2 baseline
	// profile is still the banded corpus — drift trips, a retrain runs,
	// and fault injection corrupts the candidate artifact.
	load := startShifted(pr.serve.URL, 1234)
	defer close(load.stop)

	d.Step("waiting for the corrupted candidate to be rejected")
	journal := filepath.Join(pr.workDir, "journal.jsonl")
	if err := drill.Await(180*time.Second, "corrupted candidate was never rejected", func() (bool, error) {
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
		return err
	}

	// The rejection must have left the live model untouched and serving.
	gen, err := value(pr.serve.Admin+"/metrics", "serve_model_generation")
	if err != nil {
		return err
	}
	if gen != 1 {
		return fmt.Errorf("model generation %v after corrupt candidate, want 1 (no promotion)", gen)
	}
	if n, err := value(pr.serve.Admin+"/metrics", "serve_shadow_rejects_total"); err != nil {
		return err
	} else if n < 1 {
		return fmt.Errorf("serve_shadow_rejects_total = %v, want >= 1", n)
	}
	if n, err := value(pr.shepherd.Metrics+"/metrics", "feedback_shepherd_rejections_total"); err != nil {
		return err
	} else if n < 1 {
		return fmt.Errorf("feedback_shepherd_rejections_total = %v, want >= 1", n)
	}
	if n := load.failures.Load(); n > 0 {
		return fmt.Errorf("%d requests failed during the corrupt-candidate drill (first: %v)", n, load.firstFail.Load())
	}
	d.Step("corrupt candidate rejected; live model kept serving")

	d.Step("checking graceful shutdown")
	return drill.Drain(20*time.Second, pr.serve, pr.shepherd)
}

// shifted is the background out-of-distribution workload of one leg;
// close(stop) ends it.
type shifted struct {
	stop           chan struct{}
	reqs, failures atomic.Int64
	firstFail      atomic.Value
}

// startShifted posts shifted bodies at base until stopped: every answer
// must stay healthy for the rest of the leg.
func startShifted(base string, seed int64) *shifted {
	l := &shifted{stop: make(chan struct{})}
	go func() {
		r := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-l.stop:
				return
			default:
			}
			if err := post(base, shiftedBody(r)); err != nil {
				l.failures.Add(1)
				l.firstFail.CompareAndSwap(nil, err)
			}
			l.reqs.Add(1)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	return l
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
	var entries [][3]float64
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			entries = append(entries, [3]float64{float64(i), float64(r.Intn(n)), 1})
		}
	}
	return predictBody(n, n, entries)
}

func matrixBody(m *sparse.COO) []byte {
	rows, cols := m.Dims()
	var entries [][3]float64
	for i := range m.Rows {
		entries = append(entries, [3]float64{float64(m.Rows[i]), float64(m.Cols[i]), 1})
	}
	return predictBody(rows, cols, entries)
}

// predictBody renders a pattern as a JSON predict request.
func predictBody(rows, cols int, entries [][3]float64) []byte {
	b, _ := json.Marshal(struct {
		Rows    int          `json:"rows"`
		Cols    int          `json:"cols"`
		Entries [][3]float64 `json:"entries"`
	}{rows, cols, entries})
	return b
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

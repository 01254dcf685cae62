package feedback

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/selector"
)

// Shepherd states. The machine cycles observing → retraining →
// shadowing → promoting → observing; any guarded step that fails falls
// back to observing with the reason journaled.
const (
	StateObserving  = "observing"
	StateRetraining = "retraining"
	StateShadowing  = "shadowing"
	StatePromoting  = "promoting"
)

// stateOrd maps states to the feedback_shepherd_state gauge value.
var stateOrd = map[string]int{
	StateObserving:  0,
	StateRetraining: 1,
	StateShadowing:  2,
	StatePromoting:  3,
}

// JournalEntry is one line of the shepherd's transition journal
// (workdir/journal.jsonl). The journal is the machine's durable state:
// a restarted shepherd resumes from the last line's To state.
type JournalEntry struct {
	T         int64   `json:"t"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	Reason    string  `json:"reason"`
	Candidate string  `json:"candidate,omitempty"`
	LiveAcc   float64 `json:"live_acc,omitempty"`
	CandAcc   float64 `json:"cand_acc,omitempty"`
	Gen       float64 `json:"gen,omitempty"`
}

// ShadowScorecard is the agreement/latency scorecard the serving tier
// keeps for a loaded shadow model, and the shepherd's promotion-gate
// input. It lives here so serve and shepherd share one wire type.
type ShadowScorecard struct {
	Loaded     bool    `json:"loaded"`
	Path       string  `json:"path,omitempty"`
	Samples    int     `json:"samples"`
	Agree      int     `json:"agree"`
	Disagree   int     `json:"disagree"`
	Errors     int     `json:"errors"`
	AgreeRate  float64 `json:"agree_rate"`
	ShadowMean float64 `json:"shadow_mean_seconds"`
	LiveMean   float64 `json:"live_mean_seconds"`
}

// Scorecard is the shepherd's persisted decision record
// (workdir/scorecard.json), refreshed on every state transition — the
// artifact the drill (and CI) inspect.
type Scorecard struct {
	T         int64            `json:"t"`
	State     string           `json:"state"`
	Candidate string           `json:"candidate,omitempty"`
	LiveAcc   float64          `json:"live_acc,omitempty"`
	CandAcc   float64          `json:"cand_acc,omitempty"`
	Drift     DriftSnapshot    `json:"drift"`
	Shadow    *ShadowScorecard `json:"shadow,omitempty"`
	Decision  string           `json:"decision,omitempty"`
}

// ShepherdConfig parameterises a Shepherd.
type ShepherdConfig struct {
	// WorkDir holds the journal, retrain checkpoints, the candidate
	// artifact and the scorecard (created if missing).
	WorkDir string
	// ModelPath is the live model artifact the serving tier watches;
	// promotion atomically replaces it.
	ModelPath string
	// AdminURL is the serving tier's admin endpoint base (shadow
	// control + metrics).
	AdminURL string
	// Collector folds feedback segments into the online corpus.
	Collector *Collector
	// Detector is the drift monitor fed by collected entries.
	Detector *Detector
	// Interval is the supervision period of Run (default 2s).
	Interval time.Duration
	// MinRetrainRecords gates retraining until the online corpus has
	// enough unique patterns to be worth fitting (default 64).
	MinRetrainRecords int
	// RetrainEpochs bounds the top-evolvement retrain (default 4).
	RetrainEpochs int
	// ShadowMinSamples is how many mirrored predictions the candidate
	// must accumulate before the promotion gate is judged (default 32).
	ShadowMinSamples int
	// PromoteMinAgree is the minimum live/shadow agreement rate. The
	// default is 0: under real drift the candidate is *supposed* to
	// disagree with the stale live model, so agreement is reported, not
	// required, unless configured.
	PromoteMinAgree float64
	// PromoteTimeout bounds how long promotion waits for the serving
	// tier's watcher to pick up the swapped artifact (default 30s).
	PromoteTimeout time.Duration
	// Registry receives the feedback_shepherd_* instrument set (nil =
	// private registry).
	Registry *obs.Registry
	// Log receives operational lines (nil = silent).
	Log io.Writer
}

func (c *ShepherdConfig) defaults() error {
	if c.WorkDir == "" || c.ModelPath == "" || c.AdminURL == "" {
		return fmt.Errorf("feedback: shepherd needs WorkDir, ModelPath and AdminURL")
	}
	if c.Collector == nil || c.Detector == nil {
		return fmt.Errorf("feedback: shepherd needs a Collector and a Detector")
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.MinRetrainRecords <= 0 {
		c.MinRetrainRecords = 64
	}
	if c.RetrainEpochs <= 0 {
		c.RetrainEpochs = 4
	}
	if c.ShadowMinSamples <= 0 {
		c.ShadowMinSamples = 32
	}
	if c.PromoteTimeout <= 0 {
		c.PromoteTimeout = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return nil
}

// shepherdMetrics is the feedback_shepherd_* instrument set.
type shepherdMetrics struct {
	state       *obs.Gauge
	transitions *obs.CounterVec
	collects    *obs.Counter
	corpus      *obs.Gauge
	retrains    *obs.Counter
	retrainSecs *obs.Gauge
	promotions  *obs.Counter
	rejections  *obs.Counter
	errors      *obs.Counter
}

func newShepherdMetrics(r *obs.Registry) *shepherdMetrics {
	return &shepherdMetrics{
		state:       r.Gauge("feedback_shepherd_state", "Shepherd state (0=observing, 1=retraining, 2=shadowing, 3=promoting)."),
		transitions: r.CounterVec("feedback_shepherd_transitions_total", "Shepherd state transitions, by destination."),
		collects:    r.Counter("feedback_shepherd_collects_total", "Feedback fold passes run."),
		corpus:      r.Gauge("feedback_shepherd_corpus_records", "Unique patterns in the online corpus."),
		retrains:    r.Counter("feedback_shepherd_retrains_total", "Top-evolvement retrains completed."),
		retrainSecs: r.Gauge("feedback_shepherd_retrain_seconds", "Wall time of the last completed retrain's training call."),
		promotions:  r.Counter("feedback_shepherd_promotions_total", "Candidates promoted to the live model."),
		rejections:  r.Counter("feedback_shepherd_rejections_total", "Candidates rejected (load, probe or gate failure)."),
		errors:      r.Counter("feedback_shepherd_errors_total", "Supervision ticks that failed (retried next tick)."),
	}
}

// Shepherd drives the serve→retrain→redeploy loop: it folds feedback,
// watches for drift, retrains a bounded top-evolvement candidate,
// shadows it inside the live server and promotes it through the
// probe-validated hot reload — journaling every transition so a
// restarted shepherd resumes mid-flight.
type Shepherd struct {
	cfg ShepherdConfig
	met *shepherdMetrics
	hc  *http.Client

	state     string
	candidate string
	liveAcc   float64
	candAcc   float64
}

// NewShepherd builds a shepherd, resuming state from the journal when
// one exists in the work directory.
func NewShepherd(cfg ShepherdConfig) (*Shepherd, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	s := &Shepherd{
		cfg:   cfg,
		met:   newShepherdMetrics(cfg.Registry),
		hc:    &http.Client{Timeout: 10 * time.Second},
		state: StateObserving,
	}
	entries, err := ReadJournal(s.journalPath())
	if err != nil {
		return nil, err
	}
	if n := len(entries); n > 0 {
		last := entries[n-1]
		s.state = last.To
		s.candidate = last.Candidate
		s.liveAcc, s.candAcc = last.LiveAcc, last.CandAcc
		s.logf("shepherd: resuming in state %q (journal has %d transitions)", s.state, n)
	}
	s.met.state.SetInt(uint64(stateOrd[s.state]))
	return s, nil
}

func (s *Shepherd) journalPath() string   { return filepath.Join(s.cfg.WorkDir, "journal.jsonl") }
func (s *Shepherd) scorecardPath() string { return filepath.Join(s.cfg.WorkDir, "scorecard.json") }
func (s *Shepherd) candidatePath() string { return filepath.Join(s.cfg.WorkDir, "candidate.gob") }
func (s *Shepherd) checkpointDir() string { return filepath.Join(s.cfg.WorkDir, "checkpoints") }

// State reports the current machine state.
func (s *Shepherd) State() string { return s.state }

func (s *Shepherd) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// ReadJournal parses a shepherd transition journal, skipping a torn
// final line.
func ReadJournal(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	defer f.Close()
	var out []JournalEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// transition journals a state change (append + fsync — the journal IS
// the durable state) and updates metrics and the scorecard.
func (s *Shepherd) transition(to, reason string, gen float64) error {
	e := JournalEntry{
		T: time.Now().UnixNano(), From: s.state, To: to, Reason: reason,
		Candidate: s.candidate, LiveAcc: s.liveAcc, CandAcc: s.candAcc, Gen: gen,
	}
	line, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	f, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: journal: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("feedback: journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("feedback: journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("feedback: journal: %w", err)
	}
	s.logf("shepherd: %s -> %s (%s)", s.state, to, reason)
	s.state = to
	s.met.state.SetInt(uint64(stateOrd[to]))
	s.met.transitions.With(fmt.Sprintf("to=%q", to)).Inc()
	s.writeScorecard(reason, nil)
	return nil
}

// writeScorecard refreshes the persisted decision record (best-effort:
// the journal, not the scorecard, is the durable state).
func (s *Shepherd) writeScorecard(decision string, shadow *ShadowScorecard) {
	card := Scorecard{
		T: time.Now().UnixNano(), State: s.state, Candidate: s.candidate,
		LiveAcc: s.liveAcc, CandAcc: s.candAcc,
		Drift: s.cfg.Detector.Snapshot(), Shadow: shadow, Decision: decision,
	}
	data, err := json.MarshalIndent(&card, "", "  ")
	if err != nil {
		return
	}
	err = durable.WriteFile(s.scorecardPath(), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		s.logf("shepherd: writing scorecard: %v", err)
	}
}

// Run supervises until the context is cancelled. Tick errors are
// logged and counted, then retried on the next tick — the shepherd is
// a supervisor, not a one-shot job.
func (s *Shepherd) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		if err := s.Tick(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			s.met.errors.Inc()
			s.logf("shepherd: tick: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Tick runs one supervision step of the current state.
func (s *Shepherd) Tick(ctx context.Context) error {
	switch s.state {
	case StateRetraining:
		return s.retrain(ctx)
	case StateShadowing:
		return s.shadow(ctx)
	case StatePromoting:
		return s.promote(ctx)
	default:
		return s.observe(ctx)
	}
}

// observe folds rotated feedback, feeds the drift detector and fires
// the retrain once drift is confirmed over a big-enough corpus.
func (s *Shepherd) observe(ctx context.Context) error {
	rep, err := s.cfg.Collector.Collect()
	if err != nil {
		return err
	}
	s.met.collects.Inc()
	s.met.corpus.SetInt(uint64(s.cfg.Collector.Records()))
	for _, e := range rep.Entries {
		s.cfg.Detector.Observe(e)
	}
	if len(rep.Entries) > 0 {
		s.writeScorecard("", nil)
	}
	if s.cfg.Detector.Drifted() && s.cfg.Collector.Records() >= s.cfg.MinRetrainRecords {
		snap := s.cfg.Detector.Snapshot()
		return s.transition(StateRetraining, fmt.Sprintf(
			"drift confirmed: mix=%.2f feat=%.2f(%s) rung=%.2f over %d windows",
			snap.MixDistance, snap.FeatureShift, snap.ShiftedFeature,
			snap.RungFraction, snap.DriftedWindows), 0)
	}
	return nil
}

// retrainChunk is the streaming chunk size for retraining on the
// online corpus.
const retrainChunk = 256

// retrain derives a top-evolvement candidate from the live model,
// fits it on the online corpus (checkpointed — an interrupted retrain
// resumes), evaluates both models on that corpus and hands the saved
// candidate to the shadowing state.
func (s *Shepherd) retrain(ctx context.Context) error {
	live, err := selector.LoadFile(s.cfg.ModelPath)
	if err != nil {
		return fmt.Errorf("feedback: loading live model: %w", err)
	}
	corpus, err := s.cfg.Collector.Corpus()
	if err != nil {
		return err
	}

	// Resume an interrupted retrain from its newest checkpoint, else
	// derive a fresh candidate: conv towers frozen, FC head re-fit on
	// the drifted distribution (the paper's cross-architecture scheme,
	// reused across time).
	var resume *nn.Checkpoint
	cand, ck, err := selector.LoadCheckpoint(s.checkpointDir())
	if err == nil {
		resume = ck
		s.logf("shepherd: resuming retrain from checkpoint epoch %d", ck.Epoch)
	} else {
		cand, err = selector.Transfer(live, selector.TopEvolvement)
		if err != nil {
			return fmt.Errorf("feedback: deriving candidate: %w", err)
		}
		cand.Cfg.Epochs = s.cfg.RetrainEpochs
		cand.Cfg.LearningRate *= 0.4
	}
	cand.Cfg.Epochs = s.cfg.RetrainEpochs

	// The retrain streams the corpus in fixed-size chunks (the corpus
	// store's shard discipline applied to the in-memory online corpus),
	// so a long-lived collector cannot push retrain memory past one
	// chunk of normalised samples plus the CNN codes of the corpus: the
	// towers are frozen, so training keeps each record's codes
	// (featSize × 8 B, 2 KB at the default geometry) from the first
	// epoch on, and the collector caps the corpus.
	shards := selector.DatasetShards(corpus, retrainChunk)
	cp, err := nn.NewCheckpointer(s.checkpointDir(), 1, 2)
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	trainStart := time.Now()
	if _, err := cand.TrainStreamCtx(ctx, shards, cp, resume); err != nil {
		return fmt.Errorf("feedback: retraining candidate: %w", err)
	}
	trainSecs := time.Since(trainStart).Seconds()

	liveM, err := live.EvaluateStream(shards)
	if err != nil {
		return err
	}
	candM, err := cand.EvaluateStream(shards)
	if err != nil {
		return err
	}
	s.liveAcc, s.candAcc = liveM.Accuracy(), candM.Accuracy()

	if err := cand.SaveFile(s.candidatePath()); err != nil {
		return err
	}
	// Fault hook: a corrupted retrain artifact must be rejected by the
	// serving tier's probe-validated shadow load, never promoted.
	if ferr := faultinject.Inject(faultinject.PointCandidateCorrupt); ferr != nil {
		if err := faultinject.CorruptFile(s.candidatePath()); err != nil {
			return err
		}
		s.logf("shepherd: fault injection corrupted candidate artifact")
	}
	os.RemoveAll(s.checkpointDir())
	s.candidate = s.candidatePath()
	s.met.retrains.Inc()
	s.met.retrainSecs.Set(trainSecs)
	return s.transition(StateShadowing, fmt.Sprintf(
		"candidate retrained on %d records in %.2fs: live_acc=%.3f cand_acc=%.3f",
		len(corpus.Records), trainSecs, s.liveAcc, s.candAcc), 0)
}

// shadow loads the candidate into the serving tier as a shadow model
// (idempotently — a resumed shepherd re-asserts the load) and judges
// the promotion gate once enough mirrored samples accumulated. A load
// rejection (corrupt artifact, failed probe) or a failed gate sends
// the machine back to observing.
func (s *Shepherd) shadow(ctx context.Context) error {
	card, err := s.fetchScorecard(ctx)
	if err != nil {
		return err
	}
	if !card.Loaded || card.Path != s.candidate {
		rejected, err := s.loadShadow(ctx)
		if err != nil {
			return err
		}
		if rejected != "" {
			s.met.rejections.Inc()
			s.candidate = ""
			return s.transition(StateObserving, "candidate-rejected: "+rejected, 0)
		}
		return nil // accumulate samples starting next tick
	}
	s.writeScorecard("", card)
	if card.Samples < s.cfg.ShadowMinSamples {
		return nil
	}
	switch {
	case card.Errors > 0:
		s.clearShadow(ctx)
		s.met.rejections.Inc()
		s.candidate = ""
		return s.transition(StateObserving, fmt.Sprintf("candidate-rejected: %d shadow errors", card.Errors), 0)
	case card.AgreeRate < s.cfg.PromoteMinAgree:
		s.clearShadow(ctx)
		s.met.rejections.Inc()
		s.candidate = ""
		return s.transition(StateObserving, fmt.Sprintf(
			"candidate-rejected: agreement %.2f below gate %.2f", card.AgreeRate, s.cfg.PromoteMinAgree), 0)
	case s.candAcc < s.liveAcc:
		s.clearShadow(ctx)
		s.met.rejections.Inc()
		s.candidate = ""
		return s.transition(StateObserving, fmt.Sprintf(
			"candidate-rejected: corpus accuracy %.3f below live %.3f", s.candAcc, s.liveAcc), 0)
	}
	s.writeScorecard("gate-passed", card)
	return s.transition(StatePromoting, fmt.Sprintf(
		"gate passed: %d samples, agree=%.2f, errors=0, cand_acc=%.3f >= live_acc=%.3f",
		card.Samples, card.AgreeRate, s.candAcc, s.liveAcc), 0)
}

// promote swaps the candidate over the live artifact and waits for the
// serving tier's watcher to complete its probe-validated reload
// (observable as a model-generation bump), then re-anchors the drift
// detector: the candidate was trained on the drifted traffic, so that
// traffic is the new normal.
func (s *Shepherd) promote(ctx context.Context) error {
	before, err := s.modelGeneration(ctx)
	if err != nil {
		return err
	}
	if err := installFile(s.candidate, s.cfg.ModelPath); err != nil {
		return err
	}
	deadline := time.Now().Add(s.cfg.PromoteTimeout)
	for {
		gen, err := s.modelGeneration(ctx)
		if err == nil && gen > before {
			s.clearShadow(ctx)
			s.met.promotions.Inc()
			corpus, cerr := s.cfg.Collector.Corpus()
			if cerr == nil {
				s.cfg.Detector.Rebase(NewProfile(corpus))
			}
			promoted := s.candidate
			s.candidate = ""
			return s.transition(StateObserving, fmt.Sprintf("promoted %s", promoted), gen)
		}
		if time.Now().After(deadline) {
			s.clearShadow(ctx)
			s.met.rejections.Inc()
			s.candidate = ""
			return s.transition(StateObserving, fmt.Sprintf(
				"promotion-rejected: generation stayed at %g past %s (watcher refused the artifact?)",
				before, s.cfg.PromoteTimeout), before)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// installFile durably installs a copy of src at dst — the same crash
// discipline as every artifact write, so the serving tier's watcher
// never sees a torn model and a promotion survives power loss.
func installFile(src, dst string) error {
	f, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	defer f.Close()
	err = durable.WriteFile(dst, func(w io.Writer) error {
		_, err := io.Copy(w, f)
		return err
	})
	if err != nil {
		return fmt.Errorf("feedback: installing %s: %w", dst, err)
	}
	return nil
}

// loadShadow posts the candidate to the serving tier. A transport
// error is retryable (returned); an HTTP rejection is terminal and
// returned as a non-empty reason.
func (s *Shepherd) loadShadow(ctx context.Context) (rejected string, err error) {
	body, _ := json.Marshal(map[string]string{"path": s.candidate})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.cfg.AdminURL+"/shadow/load", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("feedback: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("feedback: shadow load: %w", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("shadow load refused (%d): %s", resp.StatusCode, bytes.TrimSpace(msg)), nil
	}
	return "", nil
}

// clearShadow is best-effort: an unreachable server drops the shadow
// on its next reload anyway.
func (s *Shepherd) clearShadow(ctx context.Context) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.cfg.AdminURL+"/shadow/clear", nil)
	if err != nil {
		return
	}
	if resp, err := s.hc.Do(req); err == nil {
		resp.Body.Close()
	}
}

func (s *Shepherd) fetchScorecard(ctx context.Context) (*ShadowScorecard, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		s.cfg.AdminURL+"/shadow/scorecard", nil)
	if err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("feedback: shadow scorecard: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("feedback: shadow scorecard: HTTP %d", resp.StatusCode)
	}
	var card ShadowScorecard
	if err := json.NewDecoder(resp.Body).Decode(&card); err != nil {
		return nil, fmt.Errorf("feedback: shadow scorecard: %w", err)
	}
	return &card, nil
}

// modelGeneration scrapes serve_model_generation off the serving
// tier's metrics endpoint.
func (s *Shepherd) modelGeneration(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cfg.AdminURL+"/metrics", nil)
	if err != nil {
		return 0, fmt.Errorf("feedback: %w", err)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("feedback: scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	vals, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("feedback: parsing metrics: %w", err)
	}
	gen, ok := vals["serve_model_generation"]
	if !ok {
		return 0, fmt.Errorf("feedback: serve_model_generation not exported")
	}
	return gen, nil
}

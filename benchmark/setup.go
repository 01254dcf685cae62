package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/selector"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// ensureModel returns the path of the fixed model, training it when this
// build of the harness has not trained one yet. The model is a build
// artefact, not per-run set-up: training it takes longer than a whole
// measured window, and set-up is repeated several times per run.
// The file name carries a hash of the running executable, so any source
// change (which changes the binary) retrains instead of reusing a model
// an older training path produced.
func ensureModel(outDir string, logw io.Writer) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating executable: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("hashing executable: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing executable: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "model-"+hex.EncodeToString(h.Sum(nil))[:12]+".gob")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	start := time.Now()
	res, err := core.Train(modelOptions)
	if err != nil {
		return "", fmt.Errorf("training the fixed model: %w", err)
	}
	if err := res.Selector.SaveFile(path); err != nil {
		return "", fmt.Errorf("saving the fixed model: %w", err)
	}
	fmt.Fprintf(logw, "model: trained in %.2fs (held-out accuracy %.3f), cached at %s\n",
		time.Since(start).Seconds(), res.Metrics.Accuracy(), path)
	return path, nil
}

// poolSeed separates the workloads' input streams: the same -seed must
// not hand two workloads the same matrices.
func poolSeed(seed int64, workload string) int64 {
	h := sha256.Sum256([]byte(workload))
	return seed*1_000_003 + int64(h[0])<<8 + int64(h[1])
}

// entry is one pool input with everything the harness knows about it
// before the program sees it.
type entry struct {
	m           *sparse.COO
	body        []byte // pre-marshalled request body (serving pools)
	contentType string
	nnz         int

	want  sparse.Format // selector.Predict computed offline: the oracle
	label sparse.Format // machine.Labeler's best format (offline_select)
}

// pool is a workload's generated input set.
type pool struct {
	entries []entry
	// accuracy and regret are the fixed model's decision quality over
	// every candidate the serving pool was picked from, not only the
	// picks: the share whose oracle answer equals the modelled label, and
	// the mean modelled slowdown against the label. Over the 64 entries
	// of hot_zipf alone, one badly chosen matrix moved the mean regret by
	// a third from seed to seed. Both are pure functions of (model,
	// seed) and repeat exactly.
	accuracy, regret float64
}

// vanDerCorput is the j'th term (j >= 1) of the base-2 low-discrepancy
// sequence 1/2, 1/4, 3/4, 1/8, 5/8, ...
func vanDerCorput(j int) float64 {
	v, step := 0.0, 0.5
	for ; j > 0; j >>= 1 {
		v += float64(j&1) * step
		step /= 2
	}
	return v
}

// stratify picks count of the candidates, given by their sizes, and
// returns their indices in popularity order. The synthgen mixture is
// heavy-tailed, so count matrices drawn at random cost very different
// amounts of work from one seed to the next — with Zipf popularity the
// whole run hangs on the size of the one or two hottest. Instead the
// picks sit at evenly spaced size quantiles of the candidates, and
// popularity rank follows a van der Corput sequence over those
// quantiles: the hottest entry is the median-sized one, the next two
// the quartiles, and so on, so that at every popularity scale the
// traffic sees the whole size distribution. Which matrices those are
// still depends only on the seed.
func stratify(sizes []int, count int) []int {
	bySize := make([]int, len(sizes))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return sizes[bySize[a]] < sizes[bySize[b]] })
	order := make([]int, 0, count)
	seen := make([]bool, count)
	for j := 1; len(order) < count; j++ {
		q := int(vanDerCorput(j) * float64(count)) // which of the count quantiles
		if !seen[q] {
			seen[q] = true
			order = append(order, bySize[(2*q+1)*len(sizes)/(2*count)])
		}
	}
	return order
}

// buildPool generates candidates matrices from the seed and keeps count
// of them by stratify. When sel is non-nil it computes the oracle answer
// for each pick and the pool's quality over all candidates. mmEvery > 0
// marshals every mmEvery'th entry as Matrix Market text and the rest as
// JSON COO; mmEvery < 0 marshals nothing (offline pools).
func buildPool(seed int64, count, candidates, maxN, mmEvery int, sel *selector.Selector) (*pool, error) {
	matrices := make([]*sparse.COO, candidates)
	sizes := make([]int, candidates)
	for i, sp := range synthgen.SampleSpecs(candidates, seed, maxN) {
		matrices[i] = synthgen.Build(sp)
		sizes[i] = matrices[i].NNZ()
	}
	p := &pool{entries: make([]entry, count)}
	want := make([]sparse.Format, candidates)
	if sel != nil {
		lab := machine.NewLabeler(machine.XeonLike(), seed)
		for i, m := range matrices {
			f, _, err := sel.Predict(m)
			if err != nil {
				return nil, fmt.Errorf("oracle predict on candidate %d: %w", i, err)
			}
			want[i] = f
			label, times := lab.Label(sparse.ComputeStats(m), uint64(i))
			if f == label {
				p.accuracy += 1 / float64(candidates)
			}
			p.regret += times[f] / times[label] / float64(candidates)
		}
	}
	for i, c := range stratify(sizes, count) {
		e := &p.entries[i]
		e.m, e.nnz, e.want = matrices[c], matrices[c].NNZ(), want[c]
		switch {
		case mmEvery < 0:
		case mmEvery > 0 && i%mmEvery == mmEvery-1:
			var buf bytes.Buffer
			if err := sparse.WriteMatrixMarket(&buf, e.m); err != nil {
				return nil, fmt.Errorf("pool entry %d: %w", i, err)
			}
			e.body, e.contentType = buf.Bytes(), "text/matrix-market"
			// The server sees the text round trip, so the oracle must too.
			m, err := serve.DecodeMatrix(context.Background(), e.body, e.contentType, sparse.DefaultLimits())
			if err != nil {
				return nil, fmt.Errorf("pool entry %d: %w", i, err)
			}
			e.m = m
			if sel != nil {
				if e.want, _, err = sel.Predict(m); err != nil {
					return nil, fmt.Errorf("oracle predict on pool entry %d: %w", i, err)
				}
			}
		default:
			e.body, e.contentType = marshalJSON(e.m), "application/json"
		}
	}
	return p, nil
}

// marshalJSON renders a COO as the serve JSON predict body.
func marshalJSON(m *sparse.COO) []byte {
	rows, cols := m.Dims()
	ents := m.Entries()
	req := struct {
		Rows    int          `json:"rows"`
		Cols    int          `json:"cols"`
		Entries [][3]float64 `json:"entries"`
	}{rows, cols, make([][3]float64, len(ents))}
	for i, e := range ents {
		req.Entries[i] = [3]float64{float64(e.Row), float64(e.Col), e.Val}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // ints and finite floats always marshal
	}
	return b
}

// zipfSequence pre-draws n pool indices with Zipf(s) popularity so that
// clients only read a slice during the measured window.
func zipfSequence(seed int64, s float64, poolSize, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(poolSize-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}

// repeatSetup runs setUp at least sz.setupRepeats times and for at least
// sz.setupFor, tearing down all but the last, and returns the last
// set-up's product. Set-up is bringing the program up on inputs that
// already exist — load the model, boot what the workload talks to, get
// one checked answer — so that work moved from the first request into
// boot, or from the window into either, shows. It takes one to fourteen
// milliseconds, so it is repeated often; setup_s is the lower quartile
// of the repeats (see lowerQuartile). Generating the inputs is the
// harness's own work and is reported beside it, as bench.inputs_s.
func repeatSetup[T any](res *result, sz sizes, setUp func() (T, error), tearDown func(T)) (T, error) {
	var secs []float64
	// Generating the inputs left garbage behind; collected now, it is not
	// collected while the first set-ups run.
	runtime.GC()
	for begin := time.Now(); ; {
		start := time.Now()
		v, err := setUp()
		if err != nil {
			return v, fmt.Errorf("%s set-up: %w", res.workload, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if len(secs) >= sz.setupRepeats && time.Since(begin) >= sz.setupFor {
			res.notef("set-up: %s", summarise(secs, "s").line)
			res.metrics["setup_s"] = lowerQuartile(secs)
			return v, nil
		}
		tearDown(v)
	}
}

// firstAnswer judges the answer to the pool's first entry, the last
// step of a serving set-up.
func firstAnswer(e *entry, status int, body []byte) error {
	if a, oc := judge(e, status, body); oc != outcomeOK {
		return fmt.Errorf("first request: status %d rung %q format %q, want %q from the cnn rung", status, a.Rung, a.Format, e.want)
	}
	return nil
}

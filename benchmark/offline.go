package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/dtree"
	"repro/internal/machine"
	"repro/internal/selector"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

// offlineSetup is the offline_select input: matrices with their modelled
// labels, a fixed x per matrix and the CSR reference y.
type offlineSetup struct {
	sel   *selector.Selector
	pool  *pool
	times []map[sparse.Format]float64 // machine.Labeler's modelled seconds per format
	x     [][]float64
	yRef  [][]float64
	y     []float64 // scratch output, as long as the tallest matrix
}

// generateOffline builds everything but the selector, which set-up loads.
func generateOffline(r run) (*offlineSetup, error) {
	seed := poolSeed(r.seed, "offline_select")
	// No oracle pass: here the decision is made inside the window.
	p, err := buildPool(seed, r.sz.offlinePool, r.sz.offlineCandidates, r.sz.offlineMaxN, -1, nil)
	if err != nil {
		return nil, err
	}
	su := &offlineSetup{pool: p}
	lab := machine.NewLabeler(machine.XeonLike(), seed)
	for i := range p.entries {
		e := &p.entries[i]
		var times map[sparse.Format]float64
		e.label, times = lab.Label(sparse.ComputeStats(e.m), uint64(i))
		su.times = append(su.times, times)
		rows, cols := e.m.Dims()
		x := make([]float64, cols)
		for j := range x {
			x[j] = 1 + float64(j%7)/7
		}
		y := make([]float64, rows)
		spmv.Mul(y, sparse.NewCSR(e.m), x, 1)
		su.x, su.yRef = append(su.x, x), append(su.yRef, y)
		if rows > len(su.y) {
			su.y = make([]float64, rows)
		}
	}
	return su, nil
}

// kLoop times offlineK SpMVs offlineKRepeats times and returns the
// median loop time.
func kLoop(y []float64, m sparse.Matrix, x []float64) time.Duration {
	var loops [offlineKRepeats]float64
	for rep := range loops {
		start := time.Now()
		for k := 0; k < offlineK; k++ {
			spmv.Mul(y, m, x, 1)
		}
		loops[rep] = float64(time.Since(start))
	}
	return time.Duration(median(loops[:]))
}

// sameVector reports whether y matches ref within yTolerance of ref's
// largest magnitude.
func sameVector(y, ref []float64) bool {
	scale := 0.0
	for _, v := range ref {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range ref {
		if d := math.Abs(y[i] - ref[i]); !(d <= yTolerance*scale) {
			return false
		}
	}
	return true
}

// solved is one matrix carried through predict, convert and the K-loop.
type solved struct {
	chosen                    sparse.Format
	mat                       sparse.Matrix
	decision, convert, kernel time.Duration
	ok                        bool
}

func (s solved) total() time.Duration { return s.decision + s.convert + s.kernel }

func (su *offlineSetup) solve(i int) (solved, error) {
	e := &su.pool.entries[i]
	y := su.y[:len(su.yRef[i])]
	t0 := time.Now()
	f, _, err := su.sel.Predict(e.m)
	t1 := time.Now()
	if err != nil {
		return solved{}, fmt.Errorf("predict on matrix %d: %w", i, err)
	}
	mat, err := sparse.Convert(e.m, f)
	t2 := time.Now()
	if err != nil {
		return solved{}, fmt.Errorf("converting matrix %d to %v: %w", i, f, err)
	}
	kernel := kLoop(y, mat, su.x[i])
	return solved{chosen: f, mat: mat, decision: t1.Sub(t0), convert: t2.Sub(t1), kernel: kernel, ok: sameVector(y, su.yRef[i])}, nil
}

// runOfflineSelect is the paper's unit with no HTTP and no parse: per
// matrix, predict the format, convert to it, run K SpMVs.
func runOfflineSelect(r run) (*result, error) {
	res := newResult("offline_select")
	genStart := time.Now()
	su, err := generateOffline(r)
	if err != nil {
		return nil, err
	}
	res.inputs(genStart)
	// Set-up: load the model and decide the first matrix, which builds the
	// lazy float32 engine (not a whole solve: its conversion and kernel
	// time hang on which matrix the seed put first).
	su.sel, err = repeatSetup(res, r.sz, func() (*selector.Selector, error) {
		sel, err := selector.LoadFile(r.modelPath)
		if err != nil {
			return nil, err
		}
		_, _, err = sel.Predict(su.pool.entries[0].m)
		return sel, err
	}, func(*selector.Selector) {})
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	n := len(su.pool.entries)
	pass := func() ([]solved, error) {
		out := make([]solved, n)
		for i := range out {
			if out[i], err = su.solve(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// Warm-up: the first matrices, until the warm-up window is spent
	// (the float32 engine builds lazily on the first Predict).
	for i, stop := 0, time.Now().Add(r.window(warmupShare)); time.Now().Before(stop); i = (i + 1) % n {
		if _, err := su.solve(i); err != nil {
			return nil, err
		}
	}

	// Whole passes over the pool until the window is spent: every pass
	// solves the same matrices, so each matrix is timed once per pass and
	// stands for the lower quartile of its times (see lowerQuartile).
	perMatrix := make([][]float64, n) // solve ms of matrix i, one per pass
	decisions := make([][]float64, n) // selector.Predict us of matrix i, one per pass
	var allocs []float64
	var last []solved
	passes := 0
	for start := time.Now(); time.Since(start) < r.measured() || last == nil; passes++ {
		before := mallocs()
		out, err := pass()
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, float64(mallocs()-before)/float64(n))
		for i, s := range out {
			perMatrix[i] = append(perMatrix[i], ms(s.total()))
			decisions[i] = append(decisions[i], us(s.decision))
			res.attempted++
			if !s.ok {
				res.failed++
			}
		}
		last = out
	}

	correct, regret := 0.0, 0.0
	var decision, convert, kernel time.Duration
	solveMs := make([]float64, n)
	decisionUs := make([]float64, n)
	var every []float64
	for i, s := range last {
		e := &su.pool.entries[i]
		if s.chosen == e.label {
			correct++
		}
		regret += su.times[i][s.chosen] / su.times[i][e.label]
		decision, convert, kernel = decision+s.decision, convert+s.convert, kernel+s.kernel
		solveMs[i], decisionUs[i] = lowerQuartile(perMatrix[i]), lowerQuartile(decisions[i])
		every = append(every, perMatrix[i]...)
	}
	d := summarise(every, "ms")
	res.notef("solved: matrices=%d passes=%d succeeded=%d failed=%d", res.attempted, passes, res.attempted-res.failed, res.failed)
	res.notef("per-matrix solve, every pass: %s", d.line)
	res.notef("decision (selector.Predict in the window): p50 %.1fus over %d matrices", median(decisionUs), n)
	all := float64(decision + convert + kernel)
	res.notef("solve_ms %.1f (sum over matrices of the lower quartile of %d passes): decision %.0f%% convert %.0f%% kernel %.0f%%", sum(solveMs), passes,
		100*float64(decision)/all, 100*float64(convert)/all, 100*float64(kernel)/all)
	m := res.metrics
	m["p50_ms"] = median(solveMs)
	m["throughput_rps"] = float64(n) / (sum(solveMs) / 1e3)
	m["goodput_share"] = ratio(float64(res.attempted-res.failed), float64(res.attempted))
	m["allocs_per_op"] = median(allocs)
	m["accuracy"] = correct / float64(n)
	m["model_regret"] = regret / float64(n)

	if r.traced {
		m["bench.p95_ms"], m["bench.p99_ms"] = d.p95, d.p99
		if err := su.layers(r, res, sum(solveMs)); err != nil {
			return nil, err
		}
	}
	heap.stop(res)
	return res, nil
}

// layers runs one traced pass: every solve is recorded as a span tree
// and followed by the replays that split the decision into its layers,
// time the CSR reference loop and ask the decision tree.
func (su *offlineSetup) layers(r run, res *result, solveMs float64) error {
	rec := newRecorder(time.Now())
	rp, err := newReplayer(rec, su.sel)
	if err != nil {
		return err
	}
	tree := dtree.Heuristic(su.sel.Cfg.Formats)
	n := len(su.pool.entries)

	type kernelStat struct{ ns, nnz, bytes, chosen float64 }
	perFormat := map[sparse.Format]*kernelStat{}
	stat := func(f sparse.Format) *kernelStat {
		if perFormat[f] == nil {
			perFormat[f] = &kernelStat{}
		}
		return perFormat[f]
	}
	addKernel := func(f sparse.Format, mat sparse.Matrix, loop time.Duration) {
		rows, cols := mat.Dims()
		s := stat(f)
		s.ns += float64(loop)
		s.nnz += float64(offlineK * mat.NNZ())
		// Computed, not measured: the format's arrays plus x and y, once
		// per SpMV.
		s.bytes += float64(offlineK) * float64(mat.Bytes()+8*int64(rows+cols))
	}

	var costSpmv, breakeven []float64
	var csrNs, chosenNs, tracedMs float64
	var treeUs []float64
	treeCorrect, treeRegret := 0.0, 0.0
	for i := 0; i < n; i++ {
		e := &su.pool.entries[i]
		op := i + 1
		start := time.Now()
		s, err := su.solve(i)
		if err != nil {
			return err
		}
		res.attempted++
		if !s.ok {
			res.failed++
		}
		// solve timed its own phases; lay them end to end under the root
		// (the K-loop span is the median loop, not all repeats).
		tracedMs += ms(s.total())
		root := rec.add(0, op, "solve", start, start.Add(s.total()), false)
		predict := rec.add(root, op, "selector.predict", start, start.Add(s.decision), false)
		rec.add(root, op, "sparse.convert", start.Add(s.decision), start.Add(s.decision+s.convert), false)
		rec.add(root, op, "spmv.mul_k", start.Add(s.decision+s.convert), start.Add(s.total()), false)
		rp.innerSpans(predict, op, e.m)

		csr := sparse.NewCSR(e.m)
		csrStart := time.Now()
		csrLoop := kLoop(su.y[:len(su.yRef[i])], csr, su.x[i])
		rec.add(0, op, "spmv.mul_k_csr", csrStart, csrStart.Add(csrLoop), true)
		addKernel(sparse.FormatCSR, csr, csrLoop)
		if s.chosen != sparse.FormatCSR {
			addKernel(s.chosen, s.mat, s.kernel)
		}
		stat(s.chosen).chosen++
		csrNs += float64(csrLoop)
		chosenNs += float64(s.kernel)
		oneCSR := float64(csrLoop) / offlineK
		costSpmv = append(costSpmv, float64(s.decision)/oneCSR)
		if gain := oneCSR - float64(s.kernel)/offlineK; gain > 0 && s.chosen != sparse.FormatCSR {
			breakeven = append(breakeven, float64(s.decision+s.convert)/gain)
		}

		t0 := time.Now()
		tf, err := tree.Predict(e.m)
		treeUs = append(treeUs, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("dtree predict on matrix %d: %w", i, err)
		}
		rec.add(0, op, "dtree.predict", t0, time.Now(), true)
		if tf == e.label {
			treeCorrect++
		}
		treeRegret += su.times[i][tf] / su.times[i][e.label]
	}
	path, err := rec.write(r.outDir, res.workload)
	if err != nil {
		return fmt.Errorf("writing the span file: %w", err)
	}
	res.notef("trace: %d spans of %d solves in %s", len(rec.spans), n, path)

	m := res.metrics
	inferenceLayers(res, rec.spans, rp, su.pool)
	m["sparse.convert_us"] = medianUs(rec.spans, "sparse.convert")
	m["selector.decision_cost_spmv"] = median(costSpmv)
	m["selector.speedup_vs_csr"] = ratio(csrNs, chosenNs)
	m["selector.breakeven_iters"] = median(breakeven)
	m["dtree.predict_us"] = median(treeUs)
	m["dtree.accuracy"] = treeCorrect / float64(n)
	m["dtree.model_regret"] = treeRegret / float64(n)
	for _, f := range su.sel.Cfg.Formats {
		name, s := strings.ToLower(f.String()), stat(f)
		m["spmv.ns_per_nnz."+name] = ratio(s.ns, s.nnz)
		m["spmv.gbps_computed."+name] = ratio(s.bytes, s.ns) // bytes per ns is GB/s
		m["spmv.chosen_share."+name] = s.chosen / float64(n)
	}
	m["bench.solve_ms"] = solveMs
	m["bench.trace_overhead_share"] = ratio(tracedMs, solveMs) - 1
	return nil
}

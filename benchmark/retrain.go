package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/selector"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// retrainSetup is the retrain_stream input: the fixed model to transfer
// from and the generated matrices, built before the window so that
// ingest times labelling and storage, not the generator.
type retrainSetup struct {
	model    *selector.Selector // loaded by set-up
	specs    []synthgen.Spec
	matrices []*sparse.COO
	seed     int64
	sz       sizes
}

func generateRetrain(r run) *retrainSetup {
	seed := poolSeed(r.seed, "retrain_stream")
	su := &retrainSetup{specs: synthgen.SampleSpecs(r.sz.retrainSpecs, seed, serveMaxN), seed: seed, sz: r.sz}
	for _, sp := range su.specs {
		su.matrices = append(su.matrices, synthgen.Build(sp))
	}
	return su
}

// ingested is one pass of the specs into a fresh store.
type ingested struct {
	perRecordMs             []float64 // stats + label + Append
	statsUs, labelUs, appUs []float64
	flush, total            time.Duration
}

// cycle is one pass of ingest, retrain and held-out evaluation.
type cycle struct {
	ingests          []*ingested
	train            time.Duration
	records, trained int
	epochs           []nn.EpochStats
	accuracy, regret float64
	heldOut          int
	bytesPerRecord   float64
	iterUsPerRecord  float64
	mallocs          uint64
	spans            *recorder // traced cycles only
}

// ingest labels the specs and appends them to a fresh store in dir
// (CreateStore resets whatever store was there).
func (su *retrainSetup) ingest(dir string, rec *recorder) (*dataset.CorpusStore, *ingested, error) {
	in := &ingested{}
	plat := machine.XeonLike()
	lab := machine.NewLabeler(plat, su.seed)
	store, err := dataset.CreateStore(dir, plat.Name, su.model.Cfg.Formats, su.sz.retrainShard)
	if err != nil {
		return nil, nil, fmt.Errorf("creating the corpus store: %w", err)
	}
	start := time.Now()
	for i, sp := range su.specs {
		t0 := time.Now()
		st := sparse.ComputeStats(su.matrices[i])
		t1 := time.Now()
		label, times := lab.Label(st, uint64(i))
		t2 := time.Now()
		rcd := dataset.Record{ID: uint64(i), Spec: sp, Stats: st, Label: label, Times: times}
		if _, err := store.Append(rcd, dataset.RecordFingerprint(&rcd), nil); err != nil {
			return nil, nil, fmt.Errorf("appending record %d: %w", i, err)
		}
		t3 := time.Now()
		in.perRecordMs = append(in.perRecordMs, ms(t3.Sub(t0)))
		in.statsUs, in.labelUs, in.appUs = append(in.statsUs, us(t1.Sub(t0))), append(in.labelUs, us(t2.Sub(t1))), append(in.appUs, us(t3.Sub(t2)))
		if rec != nil {
			root := rec.add(0, i+1, "ingest", t0, t3, false)
			rec.add(root, i+1, "sparse.stats", t0, t1, false)
			rec.add(root, i+1, "machine.label", t1, t2, false)
			rec.add(root, i+1, "dataset.append", t2, t3, false)
		}
	}
	flushStart := time.Now()
	if err := store.Flush(); err != nil {
		return nil, nil, fmt.Errorf("flushing the corpus store: %w", err)
	}
	in.flush = time.Since(flushStart)
	in.total = time.Since(start)
	if n := store.NumRecords(); n != len(su.specs) {
		return nil, nil, fmt.Errorf("store holds %d records after ingesting %d specs", n, len(su.specs))
	}
	if rec != nil {
		rec.add(0, 0, "dataset.flush", flushStart, flushStart.Add(in.flush), false)
	}
	return store, in, nil
}

// runCycle ingests the specs into a fresh store under dir
// retrainIngests times over (ingest is a twentieth of a cycle, and a
// record timed once is at the mercy of the moment), retrains the dense
// head on the last store's training shards and evaluates on its
// held-out ones. Only the last ingest of a traced cycle records spans.
func (su *retrainSetup) runCycle(dir string, rec *recorder) (*cycle, error) {
	c := &cycle{spans: rec}
	before := mallocs()
	var store *dataset.CorpusStore
	for k := 0; k < retrainIngests; k++ {
		var spans *recorder
		if k == retrainIngests-1 {
			spans = rec
		}
		st, in, err := su.ingest(dir, spans)
		if err != nil {
			return nil, err
		}
		store, c.ingests = st, append(c.ingests, in)
	}
	c.records = store.NumRecords()

	trainIdx, testIdx := core.SplitShards(store.NumShards(), retrainTestShare, su.seed)
	sel, err := selector.Transfer(su.model, selector.TopEvolvement)
	if err != nil {
		return nil, err
	}
	sel.Cfg.Epochs = su.sz.retrainEpochs
	// One goroutine, as the workload is defined: with a worker per core
	// the rate halves whenever anything else touches the machine.
	sel.Cfg.Workers = 1
	sel.SetEpochHook(func(e nn.EpochStats) { c.epochs = append(c.epochs, e) })
	trainStart := time.Now()
	if _, err := sel.TrainStreamCtx(context.Background(), &core.ShardSubset{Store: store, Idx: trainIdx}, nil, nil); err != nil {
		return nil, fmt.Errorf("retraining: %w", err)
	}
	c.train = time.Since(trainStart)
	if rec != nil {
		rec.add(0, 0, "nn.train", trainStart, trainStart.Add(c.train), false)
	}

	heldOut := &core.ShardSubset{Store: store, Idx: testIdx}
	met, err := sel.EvaluateStream(heldOut)
	if err != nil {
		return nil, fmt.Errorf("evaluating on the held-out shards: %w", err)
	}
	c.accuracy, c.heldOut = met.Accuracy(), met.Total()
	c.trained = c.records - c.heldOut
	// The retrained model's decisions one by one, for the modelled
	// regret EvaluateStream does not report.
	for _, i := range testIdx {
		d, err := heldOut.Store.Shard(i)
		if err != nil {
			return nil, err
		}
		for j := range d.Records {
			rcd := &d.Records[j]
			f, _, err := sel.Predict(su.matrices[rcd.ID])
			if err != nil {
				return nil, fmt.Errorf("predict on held-out record %d: %w", rcd.ID, err)
			}
			c.regret += rcd.Times[f] / rcd.Times[rcd.Label] / float64(c.heldOut)
		}
	}
	c.mallocs = mallocs() - before

	if rec != nil {
		iterStart := time.Now()
		it, read := store.Iter(), 0
		for t0 := time.Now(); it.Next(); t0 = time.Now() {
			read += len(it.Shard().Records)
			rec.add(0, 0, "dataset.iter_next", t0, time.Now(), false)
		}
		if it.Err() != nil {
			return nil, fmt.Errorf("iterating the store: %w", it.Err())
		}
		c.iterUsPerRecord = ratio(us(time.Since(iterStart)), float64(read))
		size, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		c.bytesPerRecord = ratio(float64(size), float64(c.records))
	}
	return c, nil
}

// runRetrainStream uses represent/nn/tensor the other way (float64
// forward and backward) and dataset for writes beside reads.
func runRetrainStream(r run) (*result, error) {
	res := newResult("retrain_stream")
	genStart := time.Now()
	su := generateRetrain(r)
	res.inputs(genStart)
	// Set-up: the model loaded and transferred for retraining. Creating
	// the store is left to the cycles: it is file-system work that took 3
	// to 13 ms from one run to the next.
	var err error
	su.model, err = repeatSetup(res, r.sz, func() (*selector.Selector, error) {
		model, err := selector.LoadFile(r.modelPath)
		if err != nil {
			return nil, err
		}
		_, err = selector.Transfer(model, selector.TopEvolvement)
		return model, err
	}, func(*selector.Selector) {})
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir(r.outDir, "retrain")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	heap := startHeapSampler()

	// No warm-up cycle: a cycle is seconds long and every cycle starts
	// from a fresh store and a fresh transfer, so there is no cache to
	// fill. Whole cycles until the window is spent; medians over cycles.
	var cycles []*cycle
	for start := time.Now(); time.Since(start) < r.measured() || len(cycles) == 0; {
		c, err := su.runCycle(dir, nil)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
	}
	// Ingest: every record is timed once per ingest and stands for the
	// lower quartile of its times; training: the upper quartile over every
	// epoch of every cycle, not per TrainStreamCtx call, because a run
	// holds two cycles but twenty epochs (see lowerQuartile).
	var recordIDs []int
	var ingestMs, ingestRates, epochRates, allocs []float64
	for _, c := range cycles {
		for _, in := range c.ingests {
			for i, v := range in.perRecordMs {
				recordIDs, ingestMs = append(recordIDs, i), append(ingestMs, v)
			}
			ingestRates = append(ingestRates, float64(c.records)/in.total.Seconds())
			res.attempted += c.records
		}
		for _, e := range c.epochs {
			epochRates = append(epochRates, float64(c.trained)/e.Duration.Seconds())
		}
		allocs = append(allocs, float64(c.mallocs)/float64(c.records))
	}
	d := summarise(ingestMs, "ms")
	last := cycles[len(cycles)-1]
	trainRate, ingestRate := upperQuartile(epochRates), upperQuartile(ingestRates)
	res.notef("cycles=%d records ingested=%d failed=0; per cycle: %d ingests of %d records, %d trained x %d epochs, %d held out",
		len(cycles), res.attempted, retrainIngests, last.records, last.trained, r.sz.retrainEpochs, last.heldOut)
	res.notef("per-record ingest (stats + label + Append): %s", d.line)
	res.notef("train_samples_per_s %.1f (upper quartile of %d epochs) ingest_records_per_s %.1f (upper quartile of %d ingests)", trainRate, len(epochRates), ingestRate, len(ingestRates))
	m := res.metrics
	m["p50_ms"] = median(quiet(recordIDs, ingestMs))
	m["throughput_rps"] = trainRate
	m["goodput_share"] = 1 // a cycle that fails aborts the run; none did
	m["allocs_per_op"] = median(allocs)
	m["accuracy"] = last.accuracy
	m["model_regret"] = last.regret

	if r.traced {
		rec := newRecorder(time.Now())
		c, err := su.runCycle(dir, rec)
		if err != nil {
			return nil, err
		}
		res.attempted += retrainIngests * c.records
		if err := su.layers(r, res, c, last, trainRate, ingestRate, d); err != nil {
			return nil, err
		}
	}
	heap.stop(res)
	return res, nil
}

// layers fills the per-layer metrics from one traced cycle; ref is the
// last untraced cycle the tracing overhead is measured against.
func (su *retrainSetup) layers(r run, res *result, c, ref *cycle, trainRate, ingestRate float64, d dist) error {
	rp, err := newReplayer(c.spans, su.model)
	if err != nil {
		return err
	}
	// The inference layers as training reaches them: normalisation of
	// each sample and, for comparison with serving, the float32 forward.
	p := &pool{}
	for i := 0; i < min(replaySampleCap, len(su.matrices)); i++ {
		p.entries = append(p.entries, entry{m: su.matrices[i]})
		rp.predictSpans(0, i+1, su.matrices[i])
	}
	path, err := c.spans.write(r.outDir, res.workload)
	if err != nil {
		return fmt.Errorf("writing the span file: %w", err)
	}
	res.notef("trace: %d spans of one cycle in %s", len(c.spans.spans), path)

	m := res.metrics
	inferenceLayers(res, c.spans.spans, rp, p)
	in, refIn := c.ingests[retrainIngests-1], ref.ingests[retrainIngests-1]
	m["sparse.stats_us"] = median(in.statsUs)
	m["machine.label_us"] = median(in.labelUs)
	m["dataset.append_us_per_record"] = sum(in.appUs) / float64(c.records)
	m["dataset.flush_ms"] = ms(in.flush)
	m["dataset.bytes_per_record"] = c.bytesPerRecord
	m["dataset.iter_us_per_record"] = c.iterUsPerRecord
	var epochS []float64
	for _, e := range c.epochs {
		epochS = append(epochS, e.Duration.Seconds())
	}
	m["nn.train_epoch_s"] = median(epochS)
	m["bench.train_samples_per_s"] = trainRate
	m["bench.ingest_records_per_s"] = ingestRate
	m["bench.trace_overhead_share"] = ratio(median(in.perRecordMs), median(refIn.perRecordMs)) - 1
	m["bench.p95_ms"], m["bench.p99_ms"] = d.p95, d.p99
	return nil
}

package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

func tinyOptions() Options {
	return Options{
		Platform: "xeonlike", Count: 120, MaxN: 512,
		Representation: represent.KindHistogram,
		RepSize:        16, RepBins: 8,
		Epochs: 8, Seed: 2,
	}
}

func TestTrainEndToEnd(t *testing.T) {
	var log bytes.Buffer
	o := tinyOptions()
	o.Log = &log
	res, err := Train(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Total() == 0 || res.Selector == nil || len(res.Train) == 0 {
		t.Fatal("incomplete result")
	}
	if !strings.Contains(log.String(), "step 4") {
		t.Fatal("missing progress log")
	}
	// Prediction path.
	m := synthgen.Banded(512, 1, 1.0, 5)
	f, probs, err := res.Selector.Predict(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := probs[f]; !ok {
		t.Fatal("prediction not in probability map")
	}
	// BestFormat converts to the prediction.
	conv, cf, err := BestFormat(res.Selector, m)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Format() != cf {
		t.Fatal("BestFormat format mismatch")
	}
	if !conv.ToCOO().Equal(m) {
		t.Fatal("BestFormat changed the matrix")
	}
}

func TestTrainUnknownPlatform(t *testing.T) {
	o := tinyOptions()
	o.Platform = "nope"
	if _, err := Train(o); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestTrainWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock labelling is slow")
	}
	o := tinyOptions()
	o.Count = 40
	o.MaxN = 256
	o.Epochs = 3
	o.WallClock = true
	res, err := Train(o)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock labels must be real times.
	for _, r := range res.Dataset.Records[:5] {
		if r.Times[r.Label] <= 0 {
			t.Fatal("non-positive measured time")
		}
	}
}

func TestPredictFromFile(t *testing.T) {
	o := tinyOptions()
	o.Count = 60
	o.Epochs = 3
	res, err := Train(o)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := sparse.WriteMatrixMarketFile(path, synthgen.Uniform(300, 6, 0, 9)); err != nil {
		t.Fatal(err)
	}
	f, _, err := Predict(res.Selector, path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range sparse.CPUFormats() {
		if g == f {
			found = true
		}
	}
	if !found {
		t.Fatalf("prediction %v outside CPU set", f)
	}
	if _, _, err := Predict(res.Selector, "/nonexistent.mtx"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// An interrupted run continued with Resume trains to the full target
// and still evaluates; the checkpoint directory drives the handoff.
func TestTrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	o := tinyOptions()
	o.Count = 60
	o.Epochs = 2
	o.CheckpointDir = dir
	o.CheckpointEvery = 1
	if _, err := Train(o); err != nil {
		t.Fatal(err)
	}
	ck, err := nn.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 2 {
		t.Fatalf("checkpoint epoch %d, want 2", ck.Epoch)
	}

	o.Epochs = 4
	o.Resume = true
	var log bytes.Buffer
	o.Log = &log
	res, err := Train(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "resuming from") {
		t.Fatalf("resume not logged:\n%s", log.String())
	}
	if res.Metrics == nil || res.Metrics.Total() == 0 {
		t.Fatal("resumed run did not evaluate")
	}
	ck, err = nn.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 4 {
		t.Fatalf("final checkpoint epoch %d, want 4", ck.Epoch)
	}

	// Resume against a directory no run has written yet (not even
	// created) just starts fresh.
	o.CheckpointDir = filepath.Join(t.TempDir(), "not-yet-created")
	if _, err := Train(o); err != nil {
		t.Fatal(err)
	}
}

// Cancellation mid-training returns the partial result (selector,
// corpus, split) alongside the context error instead of dropping
// everything.
func TestTrainCtxCancelledReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := tinyOptions()
	o.Count = 60
	o.Epochs = 6
	o.EpochHook = func(st nn.EpochStats) {
		if st.Epoch >= 1 {
			cancel()
		}
	}
	res, err := TrainCtx(ctx, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Selector == nil || res.Dataset == nil || len(res.Train) == 0 {
		t.Fatalf("partial result incomplete: %+v", res)
	}
	if res.Metrics != nil {
		t.Fatal("cancelled run reported held-out metrics")
	}
}

// Cancellation during corpus generation (now context-aware) aborts the
// run with the context error before a selector ever exists.
func TestTrainCtxCancelledDuringGeneration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := tinyOptions()
	o.Count = 60
	o.Epochs = 3
	res, err := TrainCtx(ctx, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("expected no result when generation was cancelled, got %+v", res)
	}
}

func TestGPUPlatformTrains(t *testing.T) {
	o := tinyOptions()
	o.Platform = "titanlike"
	o.Count = 80
	o.Epochs = 3
	res, err := Train(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataset.Formats) != 6 {
		t.Fatalf("GPU formats: %v", res.Dataset.Formats)
	}
}

// TestZeroOptionsTrainBinary pins what Options.Representation documents:
// the zero value is the binary image, so that is what Train(Options{})
// — and every artifact trained without naming a representation — uses.
func TestZeroOptionsTrainBinary(t *testing.T) {
	if k := (Options{}).Representation; k != represent.KindBinary || k.String() != "Binary" {
		t.Fatalf("zero-valued Options.Representation is %v, documented as Binary", k)
	}
}

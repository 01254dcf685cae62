package dataset

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// The crash and containment drills for the one resumable build. Every
// case runs against both sources — the spec generator and a
// MatrixMarket tree — through the same buildStore loop; what differs
// is only where an item's matrix comes from.

func chaosLabeler() *machine.Labeler {
	return machine.NewLabeler(machine.XeonLike(), 11)
}

// chaosConfig is the shared build shape: 80 items, small enough to run
// in a test, sharded finely enough that an interrupt leaves real resume
// work behind.
var chaosConfig = Config{Count: 80, Seed: 11, MaxN: 192, Workers: 2, ShardSize: 8}

// chaosSource is one 80-item source under test.
type chaosSource struct {
	name  string
	build func(ctx context.Context, store string, cfg Config) (*BuildReport, error)
	// perturb changes the source so a resume must refuse the journal.
	perturb func(t *testing.T, cfg *Config)
}

func chaosSources(t *testing.T) []chaosSource {
	t.Helper()
	lab := chaosLabeler()
	tree := t.TempDir()
	for i := 0; i < 80; i++ {
		m := synthgen.Random(40+i, 40+i, 300+10*i, int64(i+1))
		if err := sparse.WriteMatrixMarketFile(filepath.Join(tree, fmt.Sprintf("m%03d.mtx", i)), m); err != nil {
			t.Fatal(err)
		}
	}
	return []chaosSource{
		{
			name: "generator",
			build: func(ctx context.Context, store string, cfg Config) (*BuildReport, error) {
				return GenerateStore(ctx, store, cfg, lab)
			},
			perturb: func(_ *testing.T, cfg *Config) { cfg.Seed++ },
		},
		{
			name: "directory",
			build: func(ctx context.Context, store string, cfg Config) (*BuildReport, error) {
				return IngestDir(ctx, tree, store, cfg, lab)
			},
			perturb: func(t *testing.T, _ *Config) {
				extra := synthgen.Random(70, 70, 500, 99)
				if err := sparse.WriteMatrixMarketFile(filepath.Join(tree, "zz_new.mtx"), extra); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
}

// forEachSource runs fn as a subtest per source, each with its own
// uninterrupted reference store.
func forEachSource(t *testing.T, fn func(t *testing.T, src chaosSource, ref string)) {
	for _, src := range chaosSources(t) {
		t.Run(src.name, func(t *testing.T) {
			ref := t.TempDir()
			if _, err := src.build(context.Background(), ref, chaosConfig); err != nil {
				t.Fatal(err)
			}
			fn(t, src, ref)
		})
	}
}

// TestInterruptResumeByteIdentity is the headline crash drill: a build
// cancelled mid-flight (standing in for kill -9 — the store only ever
// sees completed atomic writes either way) and then resumed must
// produce shard, manifest and dedup files identical to an
// uninterrupted run's.
func TestInterruptResumeByteIdentity(t *testing.T) {
	forEachSource(t, func(t *testing.T, src chaosSource, ref string) {
		store := t.TempDir()
		cfg := chaosConfig
		var ctx context.Context
		ctx, cfg.OnShard = cancelAfterShards(3)
		report, err := src.build(ctx, store, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted build: err = %v, want context.Canceled", err)
		}
		if report == nil {
			t.Fatal("interrupted build returned no report")
		}
		shards, _ := filepath.Glob(filepath.Join(store, "corpus-0*.bin"))
		if len(shards) < 3 {
			t.Fatalf("store holds %d shards after interrupt, want >= 3", len(shards))
		}

		cfg = chaosConfig
		cfg.Resume = true
		report, err = src.build(context.Background(), store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.ResumedShards < 3 || report.ResumedAt == 0 {
			t.Fatalf("resume reused %d shards from item %d, want >= 3 and a journaled position", report.ResumedShards, report.ResumedAt)
		}
		if report.Records != 80 {
			t.Fatalf("resumed store holds %d records, want 80", report.Records)
		}
		compareStoreBytes(t, ref, store)
	})
}

// TestResumeOfCompleteJournalIsPureReplay asserts the degenerate resume:
// every shard already published, nothing re-run, identical bytes.
func TestResumeOfCompleteJournalIsPureReplay(t *testing.T) {
	forEachSource(t, func(t *testing.T, src chaosSource, ref string) {
		cfg := chaosConfig
		cfg.Resume = true
		report, err := src.build(context.Background(), ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.ResumedShards != report.Shards || report.ResumedAt != report.Items {
			t.Fatalf("replay re-ran work: resumed %d of %d shards at item %d of %d",
				report.ResumedShards, report.Shards, report.ResumedAt, report.Items)
		}
		fresh := t.TempDir()
		if _, err := src.build(context.Background(), fresh, chaosConfig); err != nil {
			t.Fatal(err)
		}
		compareStoreBytes(t, fresh, ref)
	})
}

// TestQuarantinePanicNotAbort injects per-item panics and requires the
// build to complete with the poisoned items quarantined — what they
// were and why they failed preserved in quarantine/quarantine.jsonl —
// instead of aborting.
func TestQuarantinePanicNotAbort(t *testing.T) {
	for _, src := range chaosSources(t) {
		t.Run(src.name, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Enable(faultinject.PointLabelPanic, faultinject.Fault{Panic: "poison matrix", Remaining: 3})
			store := t.TempDir()
			report, err := src.build(context.Background(), store, chaosConfig)
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Quarantined) != 3 || report.Records != 80-3 {
				t.Fatalf("quarantined %d records %d, want 3 and 77", len(report.Quarantined), report.Records)
			}
			f, err := os.Open(filepath.Join(store, storeQuarantine, quarantineLogFile))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var entries []QuarantineEntry
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var e QuarantineEntry
				if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
					t.Fatalf("quarantine.jsonl line undecodable: %v", err)
				}
				entries = append(entries, e)
			}
			if len(entries) != 3 {
				t.Fatalf("quarantine.jsonl has %d entries, want 3", len(entries))
			}
			for _, e := range entries {
				if !e.Panic || e.Error == "" || (e.File == "" && (e.Spec == nil || e.Spec.N == 0 && e.Spec.Rows == 0)) {
					t.Fatalf("quarantine entry missing forensics: %+v", e)
				}
			}
			if _, err := os.Stat(filepath.Join(store, reportLogFile)); err != nil {
				t.Fatalf("build report not appended: %v", err)
			}
		})
	}
}

// TestShardCorruptSelfHeal writes a build whose first two published
// shards are bit-flipped after landing (the torn-write fault), then
// resumes: salvage must detect both on open, the rewind must drop them
// (a salvaged shard no longer matches its journal mark), and the
// regenerated store must still be byte-identical to a clean build.
func TestShardCorruptSelfHeal(t *testing.T) {
	forEachSource(t, func(t *testing.T, src chaosSource, ref string) {
		defer faultinject.Reset()
		store := t.TempDir()
		faultinject.Enable(faultinject.PointStoreCorrupt, faultinject.Fault{Err: faultinject.ErrInjected, Remaining: 2})
		if _, err := src.build(context.Background(), store, chaosConfig); err != nil {
			t.Fatal(err)
		}
		faultinject.Reset()

		cfg := chaosConfig
		cfg.Resume = true
		report, err := src.build(context.Background(), store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.HealedShards != 2 {
			t.Fatalf("healed %d shards, want 2", report.HealedShards)
		}
		compareStoreBytes(t, ref, store)
	})
}

// TestResumeRefusesDifferentConfig: shards from one configuration or
// source must never be assembled into another's corpus. The refusal
// leaves the store untouched; dropping Resume rebuilds it.
func TestResumeRefusesDifferentConfig(t *testing.T) {
	forEachSource(t, func(t *testing.T, src chaosSource, ref string) {
		cfg := chaosConfig
		src.perturb(t, &cfg)
		cfg.Resume = true
		if _, err := src.build(context.Background(), ref, cfg); !errors.Is(err, ErrMismatch) {
			t.Fatalf("err = %v, want ErrMismatch", err)
		}
		if s, salv, err := OpenStore(ref); err != nil || salv != nil || s.NumRecords() != 80 {
			t.Fatalf("refused resume disturbed the store: salvage=%v err=%v", salv, err)
		}
		cfg.Resume = false
		report, err := src.build(context.Background(), ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.ResumedShards != 0 {
			t.Fatalf("rebuild reused %d shards of the other configuration", report.ResumedShards)
		}
	})
}

// containmentRunners are the three ways into the labelling loop: the
// in-memory build and the two store builds. Each returns the record
// count, the report and the error.
func containmentRunners(t *testing.T) map[string]func(cfg Config) (int, *BuildReport, error) {
	runners := map[string]func(cfg Config) (int, *BuildReport, error){
		"memory": func(cfg Config) (int, *BuildReport, error) {
			d, report, err := GenerateCtx(context.Background(), cfg, chaosLabeler())
			if err != nil {
				return 0, report, err
			}
			return len(d.Records), report, nil
		},
	}
	for _, src := range chaosSources(t) {
		runners[src.name] = func(cfg Config) (int, *BuildReport, error) {
			report, err := src.build(context.Background(), t.TempDir(), cfg)
			if err != nil {
				return 0, report, err
			}
			return report.Records, report, nil
		}
	}
	return runners
}

// TestMatrixTimeoutQuarantines arms a stall longer than the per-item
// deadline: the stalled items must be quarantined as timeouts while
// the build completes.
func TestMatrixTimeoutQuarantines(t *testing.T) {
	for name, run := range containmentRunners(t) {
		t.Run(name, func(t *testing.T) {
			defer faultinject.Reset()
			// The stall must dwarf the deadline and the deadline must dwarf
			// an honest (race-instrumented) build+label, or slow-but-healthy
			// matrices get quarantined and the count assertion flakes.
			faultinject.Enable(faultinject.PointLabelStall, faultinject.Fault{Delay: 30 * time.Second, Remaining: 2})
			cfg := chaosConfig
			cfg.MatrixTimeout = 2 * time.Second
			records, report, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Quarantined) != 2 || records != 80-2 {
				t.Fatalf("quarantined %d records %d, want 2 and 78", len(report.Quarantined), records)
			}
			for _, q := range report.Quarantined {
				if !q.Timeout {
					t.Fatalf("stalled item not marked as a timeout: %+v", q)
				}
			}
		})
	}
}

// TestBreakerTripsOnConsecutiveFailures: an unbroken run of failures
// means the labeler is sick, not the matrices — the build must abort
// with ErrBreakerTripped instead of quarantining the whole corpus.
func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	for name, run := range containmentRunners(t) {
		t.Run(name, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Enable(faultinject.PointLabelPanic, faultinject.Fault{Panic: "labeler sick", Remaining: -1})
			cfg := chaosConfig
			cfg.BreakerThreshold = 4
			cfg.MaxQuarantineFrac = -1 // isolate the breaker path
			if _, _, err := run(cfg); !errors.Is(err, ErrBreakerTripped) {
				t.Fatalf("err = %v, want ErrBreakerTripped", err)
			}
		})
	}
}

// TestQuarantineOverflowAborts: past the quarantine budget the build
// aborts with ErrTooManyQuarantined rather than shipping a corpus with
// a silently decimated distribution.
func TestQuarantineOverflowAborts(t *testing.T) {
	for name, run := range containmentRunners(t) {
		t.Run(name, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Enable(faultinject.PointLabelPanic, faultinject.Fault{Panic: "poison", Remaining: -1})
			cfg := chaosConfig
			cfg.BreakerThreshold = -1 // isolate the overflow path
			cfg.MaxQuarantineFrac = 0.05
			if _, _, err := run(cfg); !errors.Is(err, ErrTooManyQuarantined) {
				t.Fatalf("err = %v, want ErrTooManyQuarantined", err)
			}
		})
	}
}

// TestGenerateCtxPreCancelled: cancellation before any work returns
// context.Canceled and no dataset.
func TestGenerateCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, _, err := GenerateCtx(ctx, chaosConfig, chaosLabeler())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d != nil {
		t.Fatal("cancelled build returned a dataset")
	}
}

// TestRelabelCtxCancelled: the parallel relabel honours cancellation.
func TestRelabelCtxCancelled(t *testing.T) {
	d := smallDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := d.RelabelCtx(ctx, machine.NewLabeler(machine.A8Like(), 1), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled relabel returned a dataset")
	}
}

// TestRelabelCtxMatchesSerial: the parallel relabel must produce the
// exact labels of the serial path — per-record purity is what makes
// both resume and parallelism safe.
func TestRelabelCtxMatchesSerial(t *testing.T) {
	d := smallDataset(t)
	lab := machine.NewLabeler(machine.A8Like(), 1)
	serial := d.Relabel(lab)
	par, err := d.RelabelCtx(context.Background(), lab, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Records {
		if serial.Records[i].Label != par.Records[i].Label {
			t.Fatalf("record %d: serial %v parallel %v", i, serial.Records[i].Label, par.Records[i].Label)
		}
	}
}

package dataset

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// The directory-only facets of the build: a tree with nested
// directories, a byte-identical duplicate and a malformed file, so the
// dedup count and the quarantine ledger have to survive every rewind
// too. (chaos_test.go runs the source-independent drills over both
// sources.)

// ingestTree writes a small MatrixMarket tree: nine distinct matrices
// across a nested directory, one byte-identical duplicate, and one
// malformed file. The sorted recursive walk is the determinism anchor
// every resume test leans on.
func ingestTree(t *testing.T) string {
	t.Helper()
	src := t.TempDir()
	if err := os.MkdirAll(filepath.Join(src, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		m := synthgen.Random(50+i, 50+i, 400+20*i, int64(i+1))
		name := fmt.Sprintf("m%02d.mtx", i)
		if i%3 == 0 {
			name = filepath.Join("sub", name)
		}
		if err := sparse.WriteMatrixMarketFile(filepath.Join(src, name), m); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate of m01 under another name: the dedup index must catch
	// it by content fingerprint, not by path.
	dup := synthgen.Random(51, 51, 420, 2)
	if err := sparse.WriteMatrixMarketFile(filepath.Join(src, "zz_dup.mtx"), dup); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(filepath.Join(src, "broken.mtx"), brokenMatrix); err != nil {
		t.Fatal(err)
	}
	return src
}

const brokenMatrix = "%%MatrixMarket matrix coordinate real general\n5 5 3\n1 1"

func ingestLabeler() *machine.Labeler {
	return machine.NewLabeler(machine.XeonLike(), 1)
}

// cancelAfterShards returns a context with an OnShard hook that cancels
// it once n shards are published — a kill with a journaled prefix plus
// in-flight state.
func cancelAfterShards(n int) (context.Context, func(done, total int)) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, func(done, total int) {
		if done == n {
			cancel()
		}
	}
}

func TestIngestDirBasic(t *testing.T) {
	src := ingestTree(t)
	store := t.TempDir()
	rep, err := IngestDir(context.Background(), src, store, Config{ShardSize: 4}, ingestLabeler())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Items != 11 || rep.Records != 9 || rep.Dupes != 1 || len(rep.Quarantined) != 1 {
		t.Fatalf("report %+v, want 11 files / 9 records / 1 dupe / 1 quarantined", rep)
	}
	if rep.Shards != 3 {
		t.Fatalf("shards %d, want 3 (9 records at size 4)", rep.Shards)
	}
	if q := rep.Quarantined[0]; q.File != "broken.mtx" || q.Stage != StageBuild || q.Error == "" {
		t.Fatalf("wrong quarantine entry: %+v", q)
	}

	s, salv, err := OpenStore(store)
	if err != nil || salv != nil {
		t.Fatalf("reopen: salvage=%v err=%v", salv, err)
	}
	d, err := s.LoadStoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Imported records carry their pattern: the matrix is
	// reconstructible in a process that never saw the source files. IDs
	// are walk positions — the same rule as the generator's spec index —
	// so they grow with the walk and skip the quarantined and the
	// duplicate file.
	last := -1
	for i, r := range d.Records {
		if int(r.ID) <= last || int(r.ID) >= rep.Items {
			t.Fatalf("record %d has ID %d after %d — IDs must be increasing walk positions", i, r.ID, last)
		}
		last = int(r.ID)
		m := r.Matrix()
		if m == nil || m.NNZ() != r.Stats.NNZ {
			t.Fatalf("record %d pattern not recoverable", i)
		}
	}
	// The quarantine log and completed journal are on disk for the
	// operator and for resume.
	if _, err := os.Stat(filepath.Join(store, storeQuarantine, quarantineLogFile)); err != nil {
		t.Fatalf("quarantine log missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(store, buildJournalFile)); err != nil {
		t.Fatalf("build journal missing: %v", err)
	}
}

// An ingest killed between shard publications resumes to a store
// byte-identical to an uninterrupted run, with the dedup count and the
// quarantine ledger rewound and rebuilt along with the shards.
func TestIngestResumeByteIdentical(t *testing.T) {
	src := ingestTree(t)
	lab := ingestLabeler()

	ref := t.TempDir()
	if _, err := IngestDir(context.Background(), src, ref, Config{ShardSize: 2}, lab); err != nil {
		t.Fatal(err)
	}

	store := t.TempDir()
	ctx, onShard := cancelAfterShards(2)
	_, err := IngestDir(ctx, src, store, Config{ShardSize: 2, OnShard: onShard}, lab)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted ingest returned %v, want context.Canceled", err)
	}

	rep, err := IngestDir(context.Background(), src, store, Config{ShardSize: 2, Resume: true}, lab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedShards != 2 || rep.ResumedAt == 0 {
		t.Fatalf("resume did not pick up the journal: %+v", rep)
	}
	if rep.Records != 9 || rep.Dupes != 1 || len(rep.Quarantined) != 1 {
		t.Fatalf("resumed totals %+v, want 9 records / 1 dupe / 1 quarantined", rep)
	}
	compareStoreBytes(t, ref, store)
}

// TestIngestWriteFailureResumable (both sources): an injected shard-write failure surfaces
// as ErrNoSpace, leaves the store consistent at the last published
// shard, and resume converges on the byte-identical store.
func TestIngestWriteFailureResumable(t *testing.T) {
	forEachSource(t, func(t *testing.T, src chaosSource, ref string) {
		defer faultinject.Reset()
		store := t.TempDir()
		// Fail the fourth publication: three shards are already out.
		published := 0
		cfg := chaosConfig
		cfg.OnShard = func(done, total int) {
			if published = done; done == 3 {
				faultinject.Enable(faultinject.PointStoreWriteFail, faultinject.Fault{Err: faultinject.ErrInjected, Remaining: 1})
			}
		}
		if _, err := src.build(context.Background(), store, cfg); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("injected write failure returned %v, want ErrNoSpace", err)
		}
		faultinject.Reset()
		if s, _, err := OpenStore(store); err != nil || s.NumShards() != published {
			t.Fatalf("aborted store: err=%v, want %d whole shards", err, published)
		}
		cfg = chaosConfig
		cfg.Resume = true
		report, err := src.build(context.Background(), store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.ResumedShards != 3 {
			t.Fatalf("resume reused %d shards, want 3", report.ResumedShards)
		}
		compareStoreBytes(t, ref, store)
	})
}

// Resume against a store whose trailing shard was damaged on disk: the
// consistency check rewinds past the salvaged shard and regenerates
// it, still converging on the byte-identical store.
func TestIngestResumeAfterShardDamage(t *testing.T) {
	src := ingestTree(t)
	lab := ingestLabeler()

	ref := t.TempDir()
	if _, err := IngestDir(context.Background(), src, ref, Config{ShardSize: 2}, lab); err != nil {
		t.Fatal(err)
	}

	store := t.TempDir()
	ctx, onShard := cancelAfterShards(3)
	IngestDir(ctx, src, store, Config{ShardSize: 2, OnShard: onShard}, lab)

	// Tear the last published shard, as a torn write would.
	raw, err := os.ReadFile(filepath.Join(store, storeShardFile(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store, storeShardFile(2)), raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := IngestDir(context.Background(), src, store, Config{ShardSize: 2, Resume: true}, lab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 9 || rep.ResumedShards != 2 || rep.HealedShards != 1 {
		t.Fatalf("resumed %+v, want 9 records on 2 reused shards with 1 healed", rep)
	}
	compareStoreBytes(t, ref, store)
}

// A changed source tree (or options) invalidates the journal: resume
// refuses with ErrMismatch rather than splicing mismatched shards or
// silently discarding the store; a run without Resume rebuilds it.
func TestIngestResumeConfigMismatch(t *testing.T) {
	src := ingestTree(t)
	lab := ingestLabeler()
	store := t.TempDir()
	if _, err := IngestDir(context.Background(), src, store, Config{ShardSize: 2}, lab); err != nil {
		t.Fatal(err)
	}
	// New file changes the walk, hence the config hash.
	extra := synthgen.Random(70, 70, 500, 99)
	if err := sparse.WriteMatrixMarketFile(filepath.Join(src, "new.mtx"), extra); err != nil {
		t.Fatal(err)
	}
	if _, err := IngestDir(context.Background(), src, store, Config{ShardSize: 2, Resume: true}, lab); !errors.Is(err, ErrMismatch) {
		t.Fatalf("resume across a source-tree change returned %v, want ErrMismatch", err)
	}
	// So do changed flags over an unchanged tree.
	if _, err := IngestDir(context.Background(), src, store, Config{ShardSize: 3, Resume: true}, lab); !errors.Is(err, ErrMismatch) {
		t.Fatalf("resume with another shard size returned %v, want ErrMismatch", err)
	}
	rep, err := IngestDir(context.Background(), src, store, Config{ShardSize: 2}, lab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedShards != 0 || rep.Records != 10 {
		t.Fatalf("fresh re-ingest %+v, want 10 records and nothing reused", rep)
	}
}

// The quarantine budget is a share of the items examined since the
// walk began. A resumed build carries its earlier quarantines in the
// journal; dividing them by the items examined since the resume alone
// aborts a healthy build on its first new bad file.
func TestResumeQuarantineBudgetCountsFromWalkStart(t *testing.T) {
	src := t.TempDir()
	bad := map[int]bool{1: true, 2: true, 3: true, 4: true, 45: true}
	for i := 0; i < 60; i++ {
		path := filepath.Join(src, fmt.Sprintf("m%03d.mtx", i))
		if bad[i] {
			if err := writeFile(path, brokenMatrix); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := sparse.WriteMatrixMarketFile(path, synthgen.Random(30+i, 30+i, 200, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	lab := ingestLabeler()
	// 5 quarantined of 60 is far inside a 20% budget at every point of
	// an uninterrupted walk.
	cfg := Config{ShardSize: 4, MaxQuarantineFrac: 0.2}
	ref := t.TempDir()
	if _, err := IngestDir(context.Background(), src, ref, cfg, lab); err != nil {
		t.Fatalf("uninterrupted build: %v", err)
	}

	// Interrupt after 5 shards (file ~24, four quarantines journaled),
	// then resume: file 45 is the 22nd examined since the resume, and
	// 5 > 0.2*22 — but it is the 46th of the walk, and 5 < 0.2*46.
	store := t.TempDir()
	ctx, onShard := cancelAfterShards(5)
	cfg.OnShard = onShard
	if _, err := IngestDir(ctx, src, store, cfg, lab); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted build returned %v, want context.Canceled", err)
	}
	cfg.OnShard, cfg.Resume = nil, true
	rep, err := IngestDir(context.Background(), src, store, cfg, lab)
	if err != nil {
		t.Fatalf("resumed build aborted: %v", err)
	}
	if rep.ResumedAt < 20 || rep.ResumedAt > 30 || len(rep.Quarantined) != 5 {
		t.Fatalf("resumed at %d with %d quarantined, want a resume near file 24 carrying all 5", rep.ResumedAt, len(rep.Quarantined))
	}
	compareStoreBytes(t, ref, store)
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

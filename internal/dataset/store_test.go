package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/sparse"
)

// storeFixture writes the shared small dataset into a fresh sharded
// store and returns both. 60 records at shard size 16 → 4 shards.
func storeFixture(t *testing.T) (string, *Dataset, *CorpusStore) {
	t.Helper()
	d := smallDataset(t)
	dir := t.TempDir()
	s, err := WriteStore(dir, d, 16)
	if err != nil {
		t.Fatal(err)
	}
	return dir, d, s
}

func TestWriteStoreRoundTrip(t *testing.T) {
	dir, d, s := storeFixture(t)
	if s.NumShards() != 4 || s.NumRecords() != 60 {
		t.Fatalf("shards %d records %d, want 4/60", s.NumShards(), s.NumRecords())
	}
	re, rep, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("clean store produced a salvage report: %+v", rep)
	}
	got, err := re.LoadStoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform != d.Platform || len(got.Formats) != len(d.Formats) {
		t.Fatalf("platform %q formats %v", got.Platform, got.Formats)
	}
	if len(got.Records) != len(d.Records) {
		t.Fatalf("records %d, want %d", len(got.Records), len(d.Records))
	}
	for i := range got.Records {
		g, w := &got.Records[i], &d.Records[i]
		if g.ID != w.ID || g.Label != w.Label || g.Stats != w.Stats || g.Spec != w.Spec {
			t.Fatalf("record %d did not round-trip: got %+v want %+v", i, g, w)
		}
		for f, tm := range w.Times {
			if g.Times[f] != tm {
				t.Fatalf("record %d time %v changed", i, f)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Two writes of the same dataset must be byte-identical — the
// foundation the resumable ingester's byte-identity contract rests on.
func TestWriteStoreDeterministic(t *testing.T) {
	d := smallDataset(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := WriteStore(dirA, d, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteStore(dirB, d, 16); err != nil {
		t.Fatal(err)
	}
	compareStoreBytes(t, dirA, dirB)
}

// compareStoreBytes asserts two store directories hold byte-identical
// shard, manifest and dedup-index files.
func compareStoreBytes(t *testing.T, dirA, dirB string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dirA, "corpus-*.bin"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no store files in %s (%v)", dirA, err)
	}
	var files []string
	for _, n := range names {
		files = append(files, filepath.Base(n))
	}
	files = append(files, storeManifestFile, storeDedupFile)
	for _, name := range files {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatalf("%s missing from second store: %v", name, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between stores", name)
		}
	}
}

func TestStoreDedup(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	s, err := CreateStore(dir, d.Platform, d.Formats, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Records[0]
	fp := RecordFingerprint(&r)
	if added, err := s.Append(r, fp, nil); err != nil || !added {
		t.Fatalf("first append added=%v err=%v", added, err)
	}
	if added, err := s.Append(r, fp, nil); err != nil || added {
		t.Fatalf("duplicate append added=%v err=%v", added, err)
	}
	if !s.Contains(fp) || s.Dupes() != 1 {
		t.Fatalf("contains=%v dupes=%d", s.Contains(fp), s.Dupes())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The dedup index survives a reopen: the same fingerprint is still
	// refused without rereading any shard.
	re, rep, err := OpenStore(dir)
	if err != nil || rep != nil {
		t.Fatalf("reopen: rep=%v err=%v", rep, err)
	}
	if !re.Contains(fp) {
		t.Fatal("fingerprint lost on reopen")
	}
	if added, err := re.Append(r, fp, nil); err != nil || added {
		t.Fatalf("dupe accepted after reopen: added=%v err=%v", added, err)
	}
}

func TestStoreIterCoversAllShards(t *testing.T) {
	_, d, s := storeFixture(t)
	it := s.Iter()
	total, shards := 0, 0
	for it.Next() {
		shards++
		total += len(it.Shard().Records)
		if err := it.Shard().Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if shards != 4 || total != len(d.Records) {
		t.Fatalf("iterated %d shards / %d records, want 4/%d", shards, total, len(d.Records))
	}
}

func TestStoreTruncateShards(t *testing.T) {
	dir, _, s := storeFixture(t)
	if err := s.TruncateShards(2, 0); err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 2 || s.NumRecords() != 32 {
		t.Fatalf("after truncate: shards %d records %d, want 2/32", s.NumShards(), s.NumRecords())
	}
	for _, idx := range []int{2, 3} {
		if _, err := os.Stat(filepath.Join(dir, storeShardFile(idx))); !os.IsNotExist(err) {
			t.Fatalf("shard %d file still present (%v)", idx, err)
		}
	}
	// The truncated store must reopen clean with the rewound totals.
	re, rep, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("truncated store reopened with salvage: %+v", rep)
	}
	if re.NumShards() != 2 || re.NumRecords() != 32 {
		t.Fatalf("reopen after truncate: shards %d records %d", re.NumShards(), re.NumRecords())
	}
	// Dropped records' fingerprints were evicted: appending one of them
	// again is not a dupe.
	d, err := re.LoadStoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != 32 {
		t.Fatalf("loaded %d records", len(d.Records))
	}
}

// A store whose manifest is deleted (or corrupted) rebuilds it from the
// self-validating shards and reports the repair.
func TestStoreManifestRebuild(t *testing.T) {
	dir, d, _ := storeFixture(t)
	if err := os.Remove(filepath.Join(dir, storeManifestFile)); err != nil {
		t.Fatal(err)
	}
	s, rep, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.ManifestRebuilt {
		t.Fatalf("manifest rebuild not reported: %+v", rep)
	}
	if s.NumRecords() != len(d.Records) || s.NumShards() != 4 {
		t.Fatalf("rebuilt store: shards %d records %d", s.NumShards(), s.NumRecords())
	}
	// Platform and format set are recovered from the shard headers.
	if s.Platform() != d.Platform || len(s.Formats()) != len(d.Formats) {
		t.Fatalf("rebuilt identity: platform %q formats %v", s.Platform(), s.Formats())
	}
	if _, err := os.Stat(filepath.Join(dir, storeSalvageFile)); err != nil {
		t.Fatalf("salvage report not written: %v", err)
	}
	// Second open is clean: the rebuild persisted.
	if _, rep2, err := OpenStore(dir); err != nil || rep2 != nil {
		t.Fatalf("second open after rebuild: rep=%+v err=%v", rep2, err)
	}
}

func TestOpenStoreRejectsNonStore(t *testing.T) {
	if _, _, err := OpenStore(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted as a store")
	}
	if _, _, err := OpenStore("/nonexistent-store-dir"); err == nil {
		t.Fatal("missing directory accepted as a store")
	}
}

// TestOpenStoreRefusesUnknownFormat: a manifest or shard header naming
// a format number no format has — 2 and 8 once numbered CSC and
// SELL-C-σ — is refused like any corrupt one: the manifest is rebuilt
// from the shards, the shard is salvaged under the manifest's format
// set, and the store never reports a format that does not exist. A
// manifest that is otherwise sound is not refused for a key nothing
// reads any more: the per-shard CRC earlier builds wrote.
func TestOpenStoreRefusesUnknownFormat(t *testing.T) {
	for _, bad := range []sparse.Format{-1, 2, 8, 99} {
		t.Run(fmt.Sprintf("manifest/%d", bad), func(t *testing.T) {
			dir, d, _ := storeFixture(t)
			path := filepath.Join(dir, storeManifestFile)
			man, err := readStoreManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			man.Formats[0] = bad
			payload, err := json.Marshal(man)
			if err != nil {
				t.Fatal(err)
			}
			if err := durable.WriteEnvelopeFile(path, durable.EnvelopeCorpusManifest, payload); err != nil {
				t.Fatal(err)
			}
			s, rep, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil || !rep.ManifestRebuilt || rep.ManifestError == "" {
				t.Fatalf("unknown format in the manifest went unreported: %+v", rep)
			}
			if !slices.Equal(s.Formats(), d.Formats) || s.NumRecords() != len(d.Records) {
				t.Fatalf("rebuilt store: formats %v records %d, want %v and %d", s.Formats(), s.NumRecords(), d.Formats, len(d.Records))
			}
		})
		t.Run(fmt.Sprintf("shard/%d", bad), func(t *testing.T) {
			dir, d, _ := storeFixture(t)
			path := shardPath(dir, 0)
			recs, hdr, err := readStoreShard(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			hdr.Formats[0] = bad
			payload, err := encodeStoreShard(*hdr, recs)
			if err != nil {
				t.Fatal(err)
			}
			if err := durable.WriteEnvelopeFile(path, durable.EnvelopeCorpusShard, payload); err != nil {
				t.Fatal(err)
			}
			s, _ := mustOpenSalvaged(t, dir, 0)
			if !slices.Equal(s.Formats(), d.Formats) || s.NumRecords() != len(d.Records) {
				t.Fatalf("salvaged store: formats %v records %d, want %v and %d", s.Formats(), s.NumRecords(), d.Formats, len(d.Records))
			}
			if _, hdr, err := readStoreShard(path, 0); err != nil || !slices.Equal(hdr.Formats, d.Formats) {
				t.Fatalf("rewritten shard: header %+v, err %v", hdr, err)
			}
		})
	}
	// A manifest whose shard entries still carry the per-shard CRC key
	// earlier builds wrote: nothing reads it, so the store opens clean.
	t.Run("manifest/shard-CRC-key", func(t *testing.T) {
		dir, d, _ := storeFixture(t)
		path := filepath.Join(dir, storeManifestFile)
		man, err := readStoreManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]any
		if err := json.Unmarshal(b, &raw); err != nil {
			t.Fatal(err)
		}
		for _, e := range raw["Shards"].([]any) {
			e.(map[string]any)["CRC"] = 3735928559
		}
		payload, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(payload, []byte(`"CRC":3735928559`)) {
			t.Fatalf("hand-built manifest lacks the CRC key: %s", payload)
		}
		if err := durable.WriteEnvelopeFile(path, durable.EnvelopeCorpusManifest, payload); err != nil {
			t.Fatal(err)
		}
		s, rep, err := OpenStore(dir)
		if err != nil || rep != nil {
			t.Fatalf("manifest with CRC keys: report %+v, err %v; want a clean open", rep, err)
		}
		if s.NumShards() != len(man.Shards) || s.NumRecords() != len(d.Records) {
			t.Fatalf("opened store: %d shards %d records, want %d and %d", s.NumShards(), s.NumRecords(), len(man.Shards), len(d.Records))
		}
	})
}

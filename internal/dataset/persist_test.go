package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/sparse"
)

func TestLoadValidatedPlatformMismatch(t *testing.T) {
	dir, _, _ := storeFixture(t) // xeonlike labels
	if _, _, err := OpenValidatedStore(dir, machine.NewLabeler(machine.A8Like(), 1)); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	if _, _, err := OpenValidatedStore(dir, machine.NewLabeler(machine.XeonLike(), 1)); err != nil {
		t.Fatalf("matching platform rejected: %v", err)
	}
}

func TestLoadValidatedFormatSetMismatch(t *testing.T) {
	dir, d, _ := storeFixture(t)
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	lab.Formats = d.Formats[:len(d.Formats)-1] // narrower selection set
	if _, _, err := OpenValidatedStore(dir, lab); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

func TestValidateCatchesSemanticDamage(t *testing.T) {
	base := smallDataset(t)
	cases := []struct {
		name   string
		damage func(d *Dataset)
		// record is set for damage confined to record 0, which the store
		// must drop on read rather than hand to a consumer.
		record bool
	}{
		{"label outside format set", func(d *Dataset) { d.Records[0].Label = sparse.Format(99) }, true},
		{"nan time", func(d *Dataset) { d.Records[0].Times[d.Records[0].Label] = math.NaN() }, true},
		{"negative time", func(d *Dataset) { d.Records[0].Times[d.Records[0].Label] = -1 }, true},
		{"zero rows", func(d *Dataset) { d.Records[0].Stats.Rows = 0 }, true},
		{"nnz beyond dims", func(d *Dataset) { d.Records[0].Stats.NNZ = d.Records[0].Stats.Rows*d.Records[0].Stats.Cols + 1 }, true},
		{"spec family out of range", func(d *Dataset) { d.Records[0].Spec.Family = 99 }, true},
		{"empty platform", func(d *Dataset) { d.Platform = "" }, false},
		{"no records", func(d *Dataset) { d.Records = nil }, false},
		{"duplicate format", func(d *Dataset) { d.Formats = append(d.Formats, d.Formats[0]) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := clone(t, base)
			tc.damage(d)
			if err := d.Validate(); !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want ErrInvalid", err)
			}
			if !tc.record {
				return
			}
			// The same damage inside a CRC-clean shard: the frame checks
			// out, so only the semantic gate on read stands between the
			// record and a trainer.
			dir := t.TempDir()
			if _, err := WriteStore(dir, d, 16); err != nil {
				t.Fatal(err)
			}
			s, _, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.LoadStoreAll()
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("store handed out an invalid record: %v", err)
			}
			if len(got.Records) != len(d.Records)-1 || got.Records[0].ID == d.Records[0].ID {
				t.Fatalf("damaged record 0 not dropped: %d records, first ID %d", len(got.Records), got.Records[0].ID)
			}
		})
	}
	// +Inf is the legal "conversion refused" sentinel, not damage.
	d := clone(t, base)
	for f := range d.Records[0].Times {
		if f != d.Records[0].Label {
			d.Records[0].Times[f] = math.Inf(1)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("+Inf time rejected: %v", err)
	}
}

// clone round-trips through the wire form for a deep copy.
func clone(t *testing.T, d *Dataset) *Dataset {
	t.Helper()
	out := &Dataset{Platform: d.Platform, Formats: append([]sparse.Format(nil), d.Formats...)}
	for i := range d.Records {
		wr := toWireRecord(&d.Records[i])
		r, err := fromWireRecord(&wr)
		if err != nil {
			t.Fatal(err)
		}
		out.Records = append(out.Records, r)
	}
	return out
}

// TestStoreFormatFrozen pins the bytes of a store's shard files. The
// hash was computed at the commit before the monolithic dataset form
// and the PR 5 build journal were deleted: gob numbers types
// process-wide in first-encounter order and writes the numbers into
// every stream, so removing (or adding) a gob-encoded type ahead of
// the store's wire types silently changes every shard written from
// then on — still readable, no longer byte-identical, and the
// kill→resume drills compare sha256.
func TestStoreFormatFrozen(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned hash covers cost-model floats as amd64 computes them (no fused multiply-add)")
	}
	const want = "c9ed33f26e569841615eaaef0ef3724bcf9275be23c4bbea2b176c1f93b2f720"
	d := Generate(Config{Count: 40, Seed: 3}, machine.NewLabeler(machine.XeonLike(), 3))
	dir := t.TempDir()
	if _, err := WriteStore(dir, d, 16); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "corpus-0*.bin"))
	if len(names) != 3 {
		t.Fatalf("%d shard files, want 3 (40 records at shard size 16)", len(names))
	}
	h := sha256.New()
	for _, n := range names { // Glob sorts: shard order
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("shard bytes changed: sha256 %s, frozen %s", got, want)
	}
}

// FuzzLoadDataset hammers OpenStore with mutations of a valid store's
// manifest and shard bytes: truncations, bit flips, and arbitrary
// garbage. The invariant is that opening never panics, fails only
// with a typed error, and never hands out a record that does not pass
// semantic validation.
func FuzzLoadDataset(f *testing.F) {
	lab := machine.NewLabeler(machine.XeonLike(), 3)
	d := Generate(Config{Count: 8, Seed: 3, MaxN: 128}, lab)
	seed := f.TempDir()
	if _, err := WriteStore(seed, d, 16); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(seed, storeManifestFile))
	if err != nil {
		f.Fatal(err)
	}
	shard, err := os.ReadFile(filepath.Join(seed, storeShardFile(0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest, shard)
	f.Add(manifest[:len(manifest)/2], shard)
	f.Add(manifest, shard[:len(shard)/2])
	f.Add([]byte{}, []byte{})
	f.Add([]byte("SMFS garbage"), []byte("SMFS garbage"))
	flipped := append([]byte(nil), shard...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(manifest, flipped)
	// The manifest's own 24-byte header declaring a 2 GiB payload: the
	// reader must refuse it without allocating the declared length.
	huge := append([]byte(nil), manifest[:24]...)
	binary.BigEndian.PutUint64(huge[12:20], 1<<31)
	f.Add(huge, shard)

	f.Fuzz(func(t *testing.T, manifest, shard []byte) {
		dir := t.TempDir()
		if os.WriteFile(filepath.Join(dir, storeManifestFile), manifest, 0o644) != nil ||
			os.WriteFile(filepath.Join(dir, storeShardFile(0)), shard, 0o644) != nil {
			t.Skip()
		}
		s, _, err := OpenStore(dir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrStore) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		d, err := s.LoadStoreAll()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrInvalid) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		// A fuzzed manifest may name any platform and format set;
		// whatever it names, every record handed out must be valid
		// against it.
		for i := range d.Records {
			if err := d.validateRecord(i); err != nil {
				t.Fatalf("OpenStore handed out an invalid record: %v", err)
			}
		}
	})
}

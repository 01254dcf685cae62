package dataset

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/sparse"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	return Generate(Config{Count: 60, Seed: 5, MaxN: 256}, lab)
}

func TestGenerateBasics(t *testing.T) {
	d := smallDataset(t)
	if len(d.Records) != 60 {
		t.Fatalf("records %d", len(d.Records))
	}
	if d.Platform != "xeonlike" || d.NumClasses() != 4 {
		t.Fatalf("platform %q classes %d", d.Platform, d.NumClasses())
	}
	for i, r := range d.Records {
		if r.Stats.NNZ == 0 {
			t.Fatalf("record %d empty", i)
		}
		if d.ClassIndex(r.Label) < 0 {
			t.Fatalf("record %d label %v not in format set", i, r.Label)
		}
		if len(r.Times) != 4 {
			t.Fatalf("record %d times %v", i, r.Times)
		}
		// Label must be the argmin of the time map.
		for f, tm := range r.Times {
			if tm < r.Times[r.Label] {
				t.Fatalf("record %d: label %v not fastest (%v is)", i, r.Label, f)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := smallDataset(t)
	b := smallDataset(t)
	for i := range a.Records {
		if a.Records[i].Label != b.Records[i].Label {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestRecordMatrixMatchesStats(t *testing.T) {
	d := smallDataset(t)
	r := d.Records[3]
	m := r.Matrix()
	st := sparse.ComputeStats(m)
	if st.NNZ != r.Stats.NNZ || st.Rows != r.Stats.Rows {
		t.Fatal("regenerated matrix disagrees with stored stats")
	}
}

func TestRelabelChangesPlatform(t *testing.T) {
	d := smallDataset(t)
	d2 := d.Relabel(machine.NewLabeler(machine.A8Like(), 1))
	if d2.Platform != "a8like" || len(d2.Records) != len(d.Records) {
		t.Fatal("relabel metadata wrong")
	}
	differ := 0
	for i := range d.Records {
		if d.Records[i].Label != d2.Records[i].Label {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("relabel produced identical labels; architecture dependence missing")
	}
	t.Logf("labels differ on %d/%d after migration", differ, len(d.Records))
}

func TestSplit(t *testing.T) {
	d := smallDataset(t)
	train, test := d.Split(0.2, 7)
	if len(test) != 12 || len(train) != 48 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatal("index duplicated across split")
		}
		seen[i] = true
	}
	if len(seen) != 60 {
		t.Fatal("split lost indices")
	}
}

func TestKFold(t *testing.T) {
	d := smallDataset(t)
	folds := d.KFold(5, 3)
	if len(folds) != 5 {
		t.Fatalf("folds %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 60 {
		t.Fatalf("folds cover %d of 60", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears %d times", i, c)
		}
	}
	train, test := TrainTestForFold(folds, 2)
	if len(train)+len(test) != 60 || len(test) != len(folds[2]) {
		t.Fatal("TrainTestForFold sizes wrong")
	}
}

// TestSaveLoadRoundTrip: the corpus the store build writes is the
// corpus Generate returns — same records, same order — both read back
// and byte for byte against WriteStore of the in-memory build.
func TestSaveLoadRoundTrip(t *testing.T) {
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	cfg := Config{Count: 60, Seed: 5, MaxN: 256, ShardSize: 16}
	d := Generate(cfg, lab)
	dir := t.TempDir()
	report, err := GenerateStore(context.Background(), dir, cfg, lab)
	if err != nil {
		t.Fatal(err)
	}
	if report.Records != len(d.Records) || report.Shards != 4 {
		t.Fatalf("report %+v, want %d records in 4 shards", report, len(d.Records))
	}
	s, salvage, err := OpenValidatedStore(dir, lab)
	if err != nil || salvage != nil {
		t.Fatalf("reopen: salvage=%v err=%v", salvage, err)
	}
	d2, err := s.LoadStoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Records) != len(d.Records) || d2.Platform != d.Platform {
		t.Fatal("round trip lost data")
	}
	for i := range d.Records {
		g, w := &d2.Records[i], &d.Records[i]
		if g.ID != w.ID || g.Spec != w.Spec || g.Label != w.Label || g.Stats != w.Stats {
			t.Fatalf("record %d mismatch after round trip", i)
		}
	}
	written := t.TempDir()
	if _, err := WriteStore(written, d, 16); err != nil {
		t.Fatal(err)
	}
	compareStoreBytes(t, written, dir)
}

// TestLoadMissingFile: what is not a store directory is refused with
// ErrStore — a missing path, and a regular file such as a corpus in
// the retired monolithic form.
func TestLoadMissingFile(t *testing.T) {
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	if _, _, err := OpenValidatedStore("/nonexistent/corpus.store", lab); !errors.Is(err, ErrStore) {
		t.Fatalf("missing path: err = %v, want ErrStore", err)
	}
	file := filepath.Join(t.TempDir(), "corpus.gob")
	if err := os.WriteFile(file, []byte("SMFS not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenValidatedStore(file, lab); !errors.Is(err, ErrStore) {
		t.Fatalf("regular file: err = %v, want ErrStore", err)
	}
}

func TestClassCounts(t *testing.T) {
	d := smallDataset(t)
	counts := d.ClassCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 60 {
		t.Fatalf("class counts sum %d", total)
	}
}

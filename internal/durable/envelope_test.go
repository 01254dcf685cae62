package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/faultinject"
)

// TestEnvelopeKindsFrozen pins every envelope kind's number. Kinds are
// written into every artifact's header, so renumbering one makes each
// file already on disk fail its kind check, and reusing a retired
// number (5–8) would let an old file pass a new reader's.
func TestEnvelopeKindsFrozen(t *testing.T) {
	kinds := map[string]uint32{
		"Model":          EnvelopeModel,
		"Selector":       EnvelopeSelector,
		"Checkpoint":     EnvelopeCheckpoint,
		"DTree":          EnvelopeDTree,
		"CorpusShard":    EnvelopeCorpusShard,
		"CorpusManifest": EnvelopeCorpusManifest,
		"CorpusIndex":    EnvelopeCorpusIndex,
		"FeedbackSeen":   EnvelopeFeedbackSeen,
	}
	want := map[string]uint32{
		"Model": 1, "Selector": 2, "Checkpoint": 3, "DTree": 4,
		"CorpusShard": 9, "CorpusManifest": 10, "CorpusIndex": 11, "FeedbackSeen": 12,
	}
	for name, k := range kinds {
		if k != want[name] {
			t.Errorf("Envelope%s = %d, frozen at %d", name, k, want[name])
		}
		if k >= 5 && k <= 8 {
			t.Errorf("Envelope%s = %d reuses a retired kind (5–8)", name, k)
		}
	}
	if EnvelopeVersion != 1 || EnvelopeHeaderLen != 24 {
		t.Errorf("envelope version %d, header %d bytes; frozen at 1 and 24", EnvelopeVersion, EnvelopeHeaderLen)
	}
}

// TestReadEnvelopeDeclaredLengthIsNotAllocated: a valid 24-byte header
// that declares a 2 GiB payload is ErrTruncated, read from a file and
// from a reader of unknown size, and refusing it allocates under a
// megabyte: no length read from the header sizes an allocation before
// the bytes behind it exist.
func TestReadEnvelopeDeclaredLengthIsNotAllocated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.bin")
	if err := WriteEnvelopeFile(path, EnvelopeModel, nil); err != nil {
		t.Fatal(err)
	}
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(hdr[12:20], 1<<31)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name string
		read func() error
	}{
		{"file", func() error { _, err := ReadEnvelopeFile(path, EnvelopeModel); return err }},
		{"reader", func() error { _, err := readEnvelope(bytes.NewReader(hdr), EnvelopeModel, -1); return err }},
	}
	for _, rc := range reads {
		if err := rc.read(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: got %v, want ErrTruncated", rc.name, err)
		}
		if got := allocBytesPerRun(3, func() { rc.read() }); got >= 1<<20 {
			t.Errorf("%s: %d bytes allocated to refuse a %d-byte envelope", rc.name, got, len(hdr))
		}
	}
}

// allocBytesPerRun is the mean number of heap bytes f allocates a run.
func allocBytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// An envelope read as another kind is ErrWrongKind, so a checkpoint
// cannot be loaded where a model is expected.
func TestReadEnvelopeFileWrongKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := WriteEnvelopeFile(path, EnvelopeCheckpoint, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEnvelopeFile(path, EnvelopeModel); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("wrong kind: got %v, want ErrWrongKind", err)
	}
	if got, err := ReadEnvelopeFile(path, EnvelopeCheckpoint); err != nil || string(got) != "payload" {
		t.Fatalf("right kind: got %q, %v", got, err)
	}
}

// The byte faultinject.CorruptFile flips in an envelope file is caught
// by the payload CRC: the file reads back as ErrChecksum.
func TestCorruptFileBreaksEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.gob")
	if err := WriteEnvelopeFile(path, EnvelopeModel, []byte("0123456789abcdefghijklmnopqrstuvwxyz")); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.CorruptFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEnvelopeFile(path, EnvelopeModel); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted envelope: got %v, want ErrChecksum", err)
	}
}

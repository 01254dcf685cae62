package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// A failing write callback must leave the published file as it was and
// no temp file behind.
func TestWriteFileFailedWriteKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := os.WriteFile(path, []byte("live"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half a candi")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v, want the callback's", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "live" {
		t.Fatalf("old file clobbered: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "artifact" {
		t.Fatalf("directory holds %v, want only the published file", ents)
	}
}

package durable

import (
	"errors"
	"io"
	"io/fs"
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

// A move across directories lands at the new path and leaves nothing
// at the old one.
func TestRenameAcrossDirectories(t *testing.T) {
	root := t.TempDir()
	from, to := filepath.Join(root, "a"), filepath.Join(root, "b")
	for _, d := range []string{from, to} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	src, dst := filepath.Join(from, "seg"), filepath.Join(to, "seg.moved")
	if err := os.WriteFile(src, []byte("sealed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(dst); err != nil || string(got) != "sealed" {
		t.Fatalf("destination = %q, %v; want the moved bytes", got, err)
	}
	if _, err := os.Stat(src); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("source still present after Rename: %v", err)
	}
	if err := Rename(src, dst); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("renaming a missing file: got %v, want fs.ErrNotExist", err)
	}
}

// AppendLine creates the file on first use and appends after that.
func TestAppendLineCreatesThenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	for _, line := range []string{"{\"n\":1}\n", "{\"n\":2}\n{\"n\":3}\n"} {
		if err := AppendLine(path, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n"; string(got) != want {
		t.Fatalf("journal = %q, want %q", got, want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("journal mode = %v, %v; want 0644", fi.Mode(), err)
	}
}

// Package durable is the repo's one crash-safe file publication.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with what write produces. The
// bytes go to a temp file in path's directory, are fsynced, made 0644
// and renamed over path, and the directory is fsynced so the rename
// itself survives power loss: a reader sees the old file or the whole
// new one, never a torn one, and once WriteFile returns nil the new one
// is what a restart finds. On error the old file is untouched and the
// temp file is removed. Errors are write's own or the os package's,
// which name the operation and the file.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	// Persist the rename itself; ignore platforms where directories
	// cannot be fsynced.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

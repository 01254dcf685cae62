// Package durable is the repo's one on-disk protocol: atomic
// publication (WriteFile), directory-fsynced Rename, fsynced
// AppendLine, the checksummed envelope every artifact is wrapped in
// (envelope.go) and the CRC-framed records a corpus shard carries
// (frame.go). No other package renames a file or computes a CRC.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with what write produces. The
// bytes go to a temp file in path's directory, are fsynced, made 0644
// and renamed over path through Rename, so the rename itself survives
// power loss: a reader sees the old file or the whole new one, never a
// torn one, and once WriteFile returns nil the new one is what a
// restart finds. On error the old file is untouched and the temp file
// is removed. Errors are write's own or the os package's, which name
// the operation and the file.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
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
	return Rename(tmpName, path)
}

// WriteBytes is WriteFile for content already in memory.
func WriteBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Rename moves oldpath to newpath and then fsyncs the directory of
// each side, so once it returns nil the move survives power loss: the
// name is gone from the old directory and present in the new one. The
// error is the rename's; a directory that cannot be fsynced (some
// platforms refuse) is skipped.
func Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	newDir, oldDir := filepath.Dir(newpath), filepath.Dir(oldpath)
	syncDir(newDir)
	if oldDir != newDir {
		syncDir(oldDir)
	}
	return nil
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// AppendLine appends data, one or more newline-terminated lines, to
// path in a single write, creating the file 0644 if needed, and fsyncs
// it before returning: a journal line AppendLine accepted is on disk.
func AppendLine(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Package atomicfile writes files atomically: readers of the path see the
// old complete file or the new complete file, never a prefix, and a crash
// at any point leaves no truncated file behind. Every on-disk store in the
// tree (trace cache, checkpoint store, model registry, cache sidecars, the
// perf ledger) writes through it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write creates path with the given permissions from whatever fill writes:
// a temp file in the same directory is filled, synced, chmodded and renamed
// over path, and the directory is synced so the rename itself survives a
// crash. On any failure the temp file is removed and path is untouched.
func Write(path string, perm os.FileMode, fill func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = fill(f)
	if err == nil {
		// Sync before rename: a crash after the rename must not resurrect
		// an empty file from an unflushed page cache.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, perm)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// WriteFile is Write for an in-memory payload.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return Write(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// syncDir flushes a directory's entries, making a completed rename durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

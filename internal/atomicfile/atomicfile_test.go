package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWriteReplacesExisting: a write over an existing file replaces its
// contents and permissions and leaves no temp file behind.
func TestWriteReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := os.WriteFile(path, []byte("old contents, longer than the new"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Errorf("contents %q, want %q", got, "new")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", fi.Mode().Perm())
	}
	if left := tmpFiles(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestFailedWriteLeavesNothing: a fill error surfaces, the existing file is
// untouched, and no temp file survives.
func TestFailedWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := os.WriteFile(path, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, 0o644, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "keep" {
		t.Errorf("contents %q after a failed write, want %q", got, "keep")
	}
	if left := tmpFiles(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestFailedRenameLeavesNothing: when the rename fails (the target is a
// non-empty directory) the temp file is removed.
func TestFailedRenameLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	if left := tmpFiles(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

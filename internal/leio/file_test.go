package leio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestWriteFileAtomicKeepsOldFileOnError checks that a replacing write
// lands with the requested mode, and that a write failing midway, as an
// encoder error does, leaves the previous file byte-identical and no
// temporary file behind.
func TestWriteFileAtomicKeepsOldFileOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.mlgb")
	old := []byte("previous contents")
	if err := WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(old)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS != "windows" && fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", fi.Mode().Perm())
	}

	errEncode := errors.New("encode failed")
	err = WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial output")); err != nil {
			return err
		}
		return errEncode
	})
	if !errors.Is(err, errEncode) {
		t.Fatalf("error %v, want the encoder's", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("file holds %q after a failed write, want %q", got, old)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.mlgb" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after a failed write, want only g.mlgb", names)
	}
}

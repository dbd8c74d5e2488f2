package leio

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces the file at path with what write produces. It
// writes a temporary file in path's directory, gives it mode perm, closes
// it and renames it over path, so a reader sees the old file or the new
// one, never a prefix, and a process that has the old file mapped keeps
// its pages: the rename leaves it the old inode, where truncating in
// place would make its next access fault. On any failure the temporary
// file is removed and path is left as it was. Nothing is synced to disk.
func WriteFileAtomic(path string, perm os.FileMode, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	// CreateTemp's 0600 would stick to the renamed file.
	if err = f.Chmod(perm); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem surface the durability layer writes through. The
// indirection exists so that crash-injection tests (internal/faultinject)
// can substitute an in-memory filesystem with page-cache semantics —
// unsynced writes may be lost, torn or bit-flipped at a simulated crash —
// while production code runs on OSFS.
type FS interface {
	// OpenFile opens name with the given flags, creating it when
	// os.O_CREATE is set.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)

	// ReadFile returns the entire contents of name.
	ReadFile(name string) ([]byte, error)

	// ReadAt reads len(p) bytes of name starting at byte offset off, with
	// io.ReaderAt semantics: it returns n < len(p) only together with a
	// non-nil error, and that error is io.EOF when the file ends before p
	// is full. Cursor reads use it to fetch exactly the byte range they
	// serve instead of the whole segment.
	ReadAt(name string, p []byte, off int64) (n int, err error)

	// Rename atomically replaces newname with oldname. Durability of the
	// directory entry requires a subsequent SyncDir.
	Rename(oldname, newname string) error

	// Remove deletes name.
	Remove(name string) error

	// Truncate shortens name to size bytes.
	Truncate(name string, size int64) error

	// ReadDirNames returns the names (not paths) of the entries in dir.
	ReadDirNames(dir string) ([]string, error)

	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm os.FileMode) error

	// SyncDir fsyncs the directory itself, making previously created or
	// renamed entries durable.
	SyncDir(dir string) error
}

// MapFS is an optional FS capability: filesystems that can memory-map a
// file expose its full contents as a read-only view without copying it
// onto the heap. Callers discover the capability with a type assertion
// and MUST fall back to ReadFile when it is absent or Map fails — an
// in-memory or exotic filesystem not supporting mmap is expected, not an
// error. The returned release function unmaps the view; the slice must
// not be touched afterwards.
type MapFS interface {
	Map(name string) (data []byte, release func() error, err error)
}

// MapFile returns the contents of name through fs's MapFS capability when
// available, falling back to a plain ReadFile copy. mapped reports which
// path was taken; release must be called exactly once when the caller is
// done with data (it is a no-op for the ReadFile fallback).
func MapFile(fs FS, name string) (data []byte, release func() error, mapped bool, err error) {
	if mf, ok := fs.(MapFS); ok {
		if data, rel, err := mf.Map(name); err == nil {
			return data, rel, true, nil
		}
		// Fall through: mmap refusal (platform, filesystem, empty file
		// semantics) downgrades to a heap read, never to a failure.
	}
	data, err = fs.ReadFile(name)
	if err != nil {
		return nil, nil, false, err
	}
	return data, func() error { return nil }, false, nil
}

// File is the subset of *os.File the write-ahead log needs.
type File interface {
	io.Writer
	io.Closer

	// Sync flushes the file's data to stable storage.
	Sync() error
}

// OSFS is the production FS backed by the real filesystem.
type OSFS struct{}

var _ FS = OSFS{}

// OpenFile implements FS.
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadAt implements FS.
func (OSFS) ReadAt(name string, p []byte, off int64) (int, error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.ReadAt(p, off)
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// ReadDirNames implements FS.
func (OSFS) ReadDirNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// SyncDir implements FS. Some platforms (and some filesystems) reject
// fsync on directories; those errors are deliberately swallowed — the
// caller has no portable recourse and the write itself already succeeded.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// EINVAL/ENOTSUP on directories is platform noise, not data loss.
		return nil //nolint:nilerr
	}
	return nil
}

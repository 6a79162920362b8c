// Package fsys is the file-system seam of the packages that keep
// durable state — resultstore, resultshard and cachekey: the calls
// they make, the real disk behind them, and the module's one durable
// write. A test hands a store another FS (one whose Sync sleeps, or
// whose Write fails with ENOSPC) to slow or break the disk without a
// fault-injection branch in the store itself.
package fsys

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// FS is every file-system call a durable-state package makes.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	// ReadInto reads the whole file at path into buf's room, grown if
	// need be, and returns buf[:0] filled with it. The bytes belong to
	// whoever owns buf, before the call and after: a caller that keeps
	// its buffer (cachekey pools one per read in flight) reads the next
	// file without allocating, and one that passes nil gets a slice of
	// its own. On an error the slice returned holds whatever was read.
	ReadInto(path string, buf []byte) ([]byte, error)
	// OpenAppend opens path for appending, creating it if need be.
	OpenAppend(path string) (File, error)
	// CreateTemp creates a new file in dir whose name starts with
	// TempPrefix.
	CreateTemp(dir string) (File, error)
	Truncate(path string, size int64) error
	Rename(from, to string) error
	Remove(path string) error
	// SyncDir fsyncs a directory, so the creates and renames in it
	// survive a crash.
	SyncDir(dir string) error
}

// File is an open file as a writer of durable state uses it.
type File interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OS is the real disk.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Truncate(path string, size int64) error    { return os.Truncate(path, size) }
func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }

func (osFS) ReadInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	buf = buf[:0]
	if cap(buf) == 0 { // no room to reuse: size it once, as os.ReadFile does
		if fi, err := f.Stat(); err == nil {
			buf = make([]byte, 0, max(fi.Size()+1, 512))
		}
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (osFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err // not a File holding a nil *os.File
	}
	return f, nil
}

func (osFS) CreateTemp(dir string) (File, error) {
	f, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// TempPrefix starts the name of every file CreateTemp makes.
const TempPrefix = ".tmp-"

// Commit writes what src holds to path durably and returns its size:
// into a temp file beside path, fsynced, then renamed over it, so a
// crash leaves the old file or the whole new one under that name,
// never a torn one. What a crash does leave is the temp file;
// RemoveTemps clears those. The rename itself is durable only once the
// directory is synced: a caller that needs that calls SyncDir next.
func Commit(disk FS, path string, src io.WriterTo) (size int64, err error) {
	tmp, err := disk.CreateTemp(filepath.Dir(path))
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close() // a second Close after the checked one is harmless
			disk.Remove(tmp.Name())
		}
	}()
	if size, err = src.WriteTo(tmp); err != nil {
		return 0, err
	}
	if err = tmp.Sync(); err != nil {
		return 0, err
	}
	if err = tmp.Close(); err != nil {
		return 0, err
	}
	if err = disk.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return size, nil
}

// RemoveTemps deletes the temp files a crash inside Commit left in
// dir. Call it before anything writes there: it cannot tell a leftover
// from a write in flight.
func RemoveTemps(disk FS, dir string) error {
	entries, err := disk.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), TempPrefix) && e.Type().IsRegular() {
			if err := disk.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

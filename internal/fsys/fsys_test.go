package fsys

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCommitReplacesTheWholeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, []byte("an older and much longer file"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Commit(OS, path, bytes.NewReader([]byte("new")))
	if err != nil || n != 3 {
		t.Fatalf("Commit = %d, %v; want 3, nil", n, err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("file holds %q, %v; want %q", got, err, "new")
	}
	assertNoTemps(t, filepath.Dir(path))
}

var errInjected = errors.New("injected")

// failFS is the real disk with one call failing: a Write, Sync or
// Close of a file it created, or a Rename.
type failFS struct {
	FS
	fail string
}

type failFile struct {
	File
	fail string
}

func (d failFS) CreateTemp(dir string) (File, error) {
	f, err := d.FS.CreateTemp(dir)
	if err != nil {
		return nil, err
	}
	return failFile{f, d.fail}, nil
}

func (d failFS) Rename(from, to string) error {
	if d.fail == "Rename" {
		return errInjected
	}
	return d.FS.Rename(from, to)
}

func (f failFile) Write(p []byte) (int, error) {
	if f.fail == "Write" {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f failFile) Sync() error {
	if f.fail == "Sync" {
		return errInjected
	}
	return f.File.Sync()
}

func (f failFile) Close() error {
	err := f.File.Close() // closed either way: the test leaks no descriptor
	if f.fail == "Close" {
		return errInjected
	}
	return err
}

// TestCommitLeavesNoTempOnFailure fails each step of Commit in turn:
// the error comes back, the temp file is gone, and the file under the
// real name is the old one.
func TestCommitLeavesNoTempOnFailure(t *testing.T) {
	for _, step := range []string{"Write", "Sync", "Close", "Rename"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "entry")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			// bytes.Reader's WriteTo is a Write on the file.
			if _, err := Commit(failFS{OS, step}, path, bytes.NewReader([]byte("new"))); !errors.Is(err, errInjected) {
				t.Fatalf("Commit with a failing %s = %v, want the injected error", step, err)
			}
			assertNoTemps(t, dir)
			if got, _ := os.ReadFile(path); string(got) != "old" {
				t.Errorf("after a failed Commit the file holds %q, want %q", got, "old")
			}
		})
	}
}

func TestRemoveTempsDeletesOnlyRegularTempFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{TempPrefix + "1", TempPrefix + "2", "wal-1.log", "snap" + TempPrefix} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, TempPrefix+"dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := RemoveTemps(OS, dir); err != nil {
		t.Fatal(err)
	}
	var left []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if got, want := strings.Join(left, " "), TempPrefix+"dir snap"+TempPrefix+" wal-1.log"; got != want {
		t.Errorf("left %q, want %q", got, want)
	}
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), TempPrefix) {
			t.Errorf("%s left behind in %s", e.Name(), dir)
		}
	}
}

// TestReadIntoFillsTheCallersRoom: a file is read whole whatever room
// the caller brings — none, too little, or more than enough, which is
// then reused rather than replaced — and a missing file is an error.
func TestReadIntoFillsTheCallersRoom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "entry")
	want := bytes.Repeat([]byte("0123456789"), 1000)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	roomy := make([]byte, 3, 1<<16)
	for _, buf := range [][]byte{nil, make([]byte, 7, 16), roomy} {
		got, err := OS.ReadInto(path, buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadInto with room %d = %d bytes, %v", cap(buf), len(got), err)
		}
	}
	if got, _ := OS.ReadInto(path, roomy); &got[0] != &roomy[:1][0] {
		t.Error("ReadInto replaced room that was large enough")
	}
	if _, err := OS.ReadInto(filepath.Join(t.TempDir(), "missing"), nil); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
}

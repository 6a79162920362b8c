package ramble

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ranProblem2 is the inputs workspace set up and executed, unsaved.
func ranProblem2(t *testing.T) *Workspace {
	t.Helper()
	w := problem2Workspace(t)
	if err := w.Setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.On(func(*Experiment) (string, float64, error) { return "Kernel done\n", 0.1, nil }); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSaveAndArchiveFollowWalkOrder: Save and Archive iterate the tree
// the way filepath.Walk visits the saved one — component-wise, which a
// plain string sort gets wrong as soon as a name holds a byte below
// '/' — so archiving memory and archiving disk give the same stream.
func TestSaveAndArchiveFollowWalkOrder(t *testing.T) {
	w := ranProblem2(t)
	for _, rel := range []string{"logs/a/x", "logs/a-b/x", "logs/a.txt", "logs/a+c"} {
		w.put(filepath.FromSlash(rel), []byte(rel), 0o644)
	}
	var unsaved bytes.Buffer
	if err := w.archiveTo(&unsaved); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	var walked []string
	err := filepath.Walk(w.Root, func(path string, info fs.FileInfo, err error) error {
		if err != nil || path == w.Root {
			return err
		}
		rel, err := filepath.Rel(w.Root, path)
		walked = append(walked, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every directory Walk meets is either written or implied by a
	// written file; drop the implied ones to compare orders.
	var written []string
	for _, rel := range walked {
		if _, ok := w.files[rel]; ok {
			written = append(written, rel)
		}
	}
	if got := walkSorted(w.files); !reflect.DeepEqual(got, written) {
		t.Errorf("walkSorted = %v\nfilepath.Walk = %v", got, written)
	}
	saved, err := NewWorkspace(w.Name, w.Root)
	if err != nil {
		t.Fatal(err)
	}
	var fromDisk bytes.Buffer
	if err := saved.archiveTo(&fromDisk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unsaved.Bytes(), fromDisk.Bytes()) {
		t.Error("archive of the unsaved workspace differs from an archive of its saved tree")
	}
}

// TestUnwritableRoot: a workspace that cannot be created fails when it
// is opened, not after the run; one that loses its directory later
// reports it from Save.
func TestUnwritableRoot(t *testing.T) {
	// Permission bits do not stop root, a path through a regular file
	// stops everyone.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkspace("blocked", filepath.Join(blocker, "ws")); err == nil {
		t.Error("NewWorkspace under a regular file should fail")
	}

	w := ranProblem2(t)
	if err := os.Remove(w.Root); err != nil {
		t.Fatalf("an unsaved workspace's root must be an empty directory: %v", err)
	}
	if err := os.WriteFile(w.Root, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err == nil {
		t.Error("Save under a regular file should fail")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestArchiveReportsTruncation: gzip buffers a small archive whole, so
// a writer that fails is first heard from when the streams are closed
// — the error the deferred closes used to drop.
func TestArchiveReportsTruncation(t *testing.T) {
	w := ranProblem2(t)
	if err := w.archiveTo(failingWriter{}); err == nil {
		t.Error("archive into a failing writer reported success")
	}

	// A file that cannot be read fails the archive mid-stream; the
	// partial output must not be left behind looking like an archive.
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("nowhere", filepath.Join(w.Root, "logs", "dangling")); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "ws.tar.gz")
	if err := w.Archive(out); err == nil {
		t.Error("archive of an unreadable file reported success")
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("partial archive left behind: %v", err)
	}
}

package ramble

import (
	"archive/tar"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func problem2Workspace(t *testing.T) *Workspace {
	t.Helper()
	return problem2WorkspaceAt(t, t.TempDir())
}

func problem2WorkspaceAt(t *testing.T, root string) *Workspace {
	t.Helper()
	w, err := NewWorkspace("inputs", root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    amg2023:
      workloads:
        problem2:
          experiments:
            amg_p2:
              variables:
                nx: '8'
                ny: '8'
                nz: '8'
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	return w
}

// reopened is what a later process sees of w: a fresh workspace over
// the tree w saved, nothing in memory, w's experiments generated.
func reopened(t *testing.T, w *Workspace) *Workspace {
	t.Helper()
	w2 := problem2WorkspaceAt(t, w.Root)
	w2.Experiments = w.Experiments
	return w2
}

func TestFetchInputsVerified(t *testing.T) {
	w := problem2Workspace(t)
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(w.Root, "inputs", "amg_problem2.deck")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("input not fetched: %v", err)
	}
	if !strings.Contains(string(data), "fetched from https://benchmarks.example") {
		t.Errorf("content = %q...", data[:40])
	}
	// Second setup reuses the cached file: the fetcher is not called.
	if err := reopened(t, w).Setup(); err != nil {
		t.Fatal(err)
	}
	err = reopened(t, w).FetchInputs(func(url string) ([]byte, error) {
		return nil, fmt.Errorf("fetched %s again", url)
	})
	if err != nil {
		t.Error(err)
	}
}

func TestFetchInputsChecksumMismatch(t *testing.T) {
	w := problem2Workspace(t)
	// Generate experiments first, then fetch with a corrupting fetcher.
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	// Remove the good input and refetch corrupted content.
	if err := os.Remove(filepath.Join(w.Root, "inputs", "amg_problem2.deck")); err != nil {
		t.Fatal(err)
	}
	err := reopened(t, w).FetchInputs(func(url string) ([]byte, error) {
		return []byte("corrupted mirror content"), nil
	})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("err = %v", err)
	}
}

func TestFetchInputsCorruptCacheRefetched(t *testing.T) {
	w := problem2Workspace(t)
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(w.Root, "inputs", "amg_problem2.deck")
	if err := os.WriteFile(path, []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Fetch again: the corrupt cache entry must be replaced.
	w = reopened(t, w)
	if err := w.FetchInputs(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if string(data) == "bitrot" {
		t.Error("corrupt cached input was not refetched")
	}
}

func TestFetchInputsFetcherError(t *testing.T) {
	w := problem2Workspace(t)
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(w.Root, "inputs", "amg_problem2.deck")); err != nil {
		t.Fatal(err)
	}
	err := reopened(t, w).FetchInputs(func(url string) ([]byte, error) {
		return nil, fmt.Errorf("mirror unreachable")
	})
	if err == nil || !strings.Contains(err.Error(), "mirror unreachable") {
		t.Errorf("err = %v", err)
	}
}

func TestWorkloadWithoutInputsFetchesNothing(t *testing.T) {
	w, err := NewWorkspace("noinputs", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            s:
              variables:
                n: '4'
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(w.Root, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("unexpected inputs: %v", entries)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	w := ranProblem2(t)
	archive := filepath.Join(t.TempDir(), "ws.tar.gz")
	if err := w.Archive(archive); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, err := ExtractArchive(archive, dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(files, "\n")
	for _, want := range []string{
		"configs/ramble.yaml",
		"inputs/amg_problem2.deck",
		"experiments/amg2023/problem2/amg_p2/execute_experiment.sh",
		"experiments/amg2023/problem2/amg_p2/amg_p2.out",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("archive missing %s; has:\n%s", want, joined)
		}
	}
	// Extracted output is intact.
	data, err := os.ReadFile(filepath.Join(dir, "experiments/amg2023/problem2/amg_p2/amg_p2.out"))
	if err != nil || !strings.Contains(string(data), "Kernel done") {
		t.Errorf("extracted output: %q, %v", data, err)
	}
}

func TestArchiveBeforeSetupRejected(t *testing.T) {
	w := problem2Workspace(t)
	if err := w.Archive(filepath.Join(t.TempDir(), "x.tar.gz")); err == nil {
		t.Error("archive before setup should fail")
	}
}

func TestExtractArchiveRejectsTraversal(t *testing.T) {
	// Hand-craft a malicious archive.
	dir := t.TempDir()
	path := filepath.Join(dir, "evil.tar.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEvilArchive(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ExtractArchive(path, t.TempDir()); err == nil {
		t.Error("path traversal should be rejected")
	}
}

// writeEvilArchive writes a tar.gz containing a ../ entry.
func writeEvilArchive(w io.Writer) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	data := []byte("pwned")
	if err := tw.WriteHeader(&tar.Header{Name: "../escape.txt", Mode: 0o644, Size: int64(len(data))}); err != nil {
		return err
	}
	if _, err := tw.Write(data); err != nil {
		return err
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

package repro

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cachekey"
	"repro/internal/core"
	"repro/internal/ramble"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from what this tree produces")

// The goldens under testdata/ were recorded from the commit before the
// workspace moved into memory (ISSUE 17): they pin the tree a kept
// workspace leaves on disk — paths, modes, contents — and the archive
// stream, so Save and Archive must reproduce what the write-as-you-go
// workspace left.

// treeManifest lists every entry under root as "mode  path  sha256",
// sorted by path, directories with a trailing slash and no digest.
// File contents are hashed with root normalised to $WORKSPACE: batch
// scripts legitimately embed the workspace path.
func treeManifest(t *testing.T, root string) string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			lines = append(lines, fmt.Sprintf("%s  %s/  -", info.Mode(), rel))
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("%s  %s  %s", info.Mode(), rel, normalisedSum(data, root)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(lines, func(i, j int) bool {
		return strings.Fields(lines[i])[1] < strings.Fields(lines[j])[1]
	})
	return strings.Join(lines, "\n") + "\n"
}

func normalisedSum(data []byte, root string) string {
	return fmt.Sprintf("%x", sha256.Sum256(bytes.ReplaceAll(data, []byte(root), []byte("$WORKSPACE"))))
}

// archiveManifest lists a workspace archive's entries in stream order
// as "mode  name  sha256", contents normalised like treeManifest's.
func archiveManifest(t *testing.T, archive []byte, root string) string {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	var b strings.Builder
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s  %s  %s\n", fs.FileMode(hdr.Mode), hdr.Name, normalisedSum(data, root))
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the recorded tree:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// archiveBytes archives ws into a scratch file and returns the stream.
func archiveBytes(t *testing.T, ws *ramble.Workspace) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "ws.tar.gz")
	if err := ws.Archive(out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkKeptWorkspace pins the whole lifecycle of one run workspace
// against the goldens: nothing on disk until Save, Archive the same
// stream before and after Save, Save reproducing the recorded tree,
// and a second Save changing nothing.
func checkKeptWorkspace(t *testing.T, ws *ramble.Workspace, golden string) {
	t.Helper()
	entries, err := os.ReadDir(ws.Root)
	if err != nil {
		t.Fatalf("workspace dir must exist before Save: %v", err)
	}
	if len(entries) != 0 {
		t.Errorf("unsaved workspace holds %d entries on disk, want 0", len(entries))
	}
	unsaved := archiveBytes(t, ws)
	checkGolden(t, "archive_"+golden, archiveManifest(t, unsaved, ws.Root))
	if err := ws.Save(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "workspace_"+golden, treeManifest(t, ws.Root))
	if saved := archiveBytes(t, ws); !bytes.Equal(saved, unsaved) {
		t.Error("Archive after Save differs from Archive before Save")
	}
	if err := ws.Save(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "workspace_"+golden, treeManifest(t, ws.Root))
}

// TestKeptWorkspaceMatchesGolden: the tree `benchpark run saxpy/openmp
// cts1 <dir>` leaves is the recorded one however the matrix was
// executed — serial, concurrent, or replayed from the run cache.
func TestKeptWorkspaceMatchesGolden(t *testing.T) {
	run := func(t *testing.T, bp *core.Benchpark, o core.RunOptions) *ramble.Workspace {
		t.Helper()
		sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := sess.Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || rep.Total != 8 {
			t.Fatalf("%d of %d experiments failed", rep.Failed, rep.Total)
		}
		return sess.Workspace
	}
	const golden = "saxpy_openmp_cts1.golden"
	for _, tc := range []struct {
		name string
		opts core.RunOptions
	}{
		{"jobs=1", core.RunOptions{Jobs: 1}},
		{"jobs=8", core.RunOptions{Jobs: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkKeptWorkspace(t, run(t, core.New(), tc.opts), golden)
		})
	}
	t.Run("warm", func(t *testing.T) {
		st, err := cachekey.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cold := core.New()
		cold.UseCache(st)
		run(t, cold, core.RunOptions{Jobs: 8})
		warm := core.New()
		warm.UseCache(st)
		sess, err := warm.Setup("saxpy/openmp", "cts1", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, erep, err := sess.Run(context.Background(), core.RunOptions{Jobs: 8})
		if err != nil {
			t.Fatal(err)
		}
		if erep.CacheHits != erep.Total || erep.Total != 8 {
			t.Fatalf("warm run replayed %d of %d experiments", erep.CacheHits, erep.Total)
		}
		checkKeptWorkspace(t, sess.Workspace, golden)
	})
}

// TestKeptInputsWorkspaceMatchesGolden pins the one workload with a
// checksummed file under inputs/ (amg2023 problem2; no builtin suite
// has one), configured by hand as internal/ramble's inputs tests do.
func TestKeptInputsWorkspaceMatchesGolden(t *testing.T) {
	ws, err := ramble.NewWorkspace("inputs", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = ws.Configure(`
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
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Setup(); err != nil {
		t.Fatal(err)
	}
	// Each experiment as a run leaves it: outcome set, .out written.
	for _, e := range ws.Experiments {
		e.Output, e.Elapsed, e.Status = "Kernel done\nconverged\n", 0.1, ramble.Succeeded
		ws.WriteOutput(e, ".out", e.Output)
	}
	checkKeptWorkspace(t, ws, "amg2023_problem2.golden")
}

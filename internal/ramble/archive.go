package ramble

import (
	"archive/tar"
	"compress/gzip"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Archive bundles the workspace's configs, rendered scripts, and
// experiment outputs into a tar.gz — the shareable artifact Section 5
// envisions when collaborators "contribute the performance results of
// the benchmarks as they execute them on their systems". The archive
// carries everything needed to audit how each number was produced.
func (w *Workspace) Archive(outPath string) error {
	if !w.setupDone {
		return fmt.Errorf("ramble: workspace %s has nothing to archive (run Setup first)", w.Name)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	err = w.archiveTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(outPath) // a truncated archive must not pass for a whole one
	}
	return err
}

// archiveTo streams the workspace as it would look saved: every file
// this process wrote plus every file already under Root, the written
// one winning, in the order a walk of the saved tree visits them.
func (w *Workspace) archiveTo(out io.Writer) error {
	present := map[string]bool{}
	for rel, f := range w.files {
		if !f.mode.IsDir() {
			present[rel] = true
		}
	}
	err := filepath.WalkDir(w.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(w.Root, path)
		present[rel] = true
		return err
	})
	if err != nil {
		return err
	}

	gz := gzip.NewWriter(out)
	tw := tar.NewWriter(gz)
	for _, rel := range walkSorted(present) {
		data, err := w.read(rel)
		if err != nil {
			return err
		}
		hdr := &tar.Header{
			Name: filepath.ToSlash(rel),
			Mode: 0o644,
			Size: int64(len(data)),
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if _, err := io.WriteString(tw, data); err != nil {
			return err
		}
	}
	// The tar trailer and gzip's last block are written here: an error
	// dropped at either close is a truncated archive reported as success.
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// ExtractArchive unpacks a workspace archive into dir and returns the
// relative paths extracted (sorted by archive order). Paths escaping
// the target directory are rejected.
func ExtractArchive(archivePath, dir string) ([]string, error) {
	f, err := os.Open(archivePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("ramble: bad archive: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	var out []string
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		clean := filepath.Clean(hdr.Name)
		if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
			return nil, fmt.Errorf("ramble: archive entry %q escapes the target directory", hdr.Name)
		}
		dst := filepath.Join(dir, clean)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return nil, err
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			return nil, err
		}
		out = append(out, clean)
	}
	return out, nil
}

package ramble

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
)

// InputFile is a workload input an application needs before running
// — Section 3.2.3's "Downloading source and input files" step.
// Inputs are content-verified: fetching checks the recorded SHA-256,
// the same integrity discipline Spack applies to sources.
type InputFile struct {
	Name      string
	URL       string
	SHA256    string   // expected digest of the content
	Workloads []string // applicable workloads; empty = all
}

// AddInput declares a required input file on an application.
func (a *Application) AddInput(name, url, sha256sum string, workloads ...string) *Application {
	a.Inputs = append(a.Inputs, InputFile{
		Name: name, URL: url, SHA256: sha256sum, Workloads: workloads,
	})
	return a
}

// InputsFor returns the inputs a workload needs.
func (a *Application) InputsFor(workload string) []InputFile {
	var out []InputFile
	for _, in := range a.Inputs {
		if len(in.Workloads) == 0 || slices.Contains(in.Workloads, workload) {
			out = append(out, in)
		}
	}
	return out
}

// Fetcher retrieves the content behind a URL. The default fetcher
// synthesizes deterministic content from the URL (the simulation has
// no network); tests and deployments can substitute their own.
type Fetcher func(url string) ([]byte, error)

// DefaultFetcher deterministically derives content from the URL so
// that fetch + verify exercises the real integrity code path offline.
func DefaultFetcher(url string) ([]byte, error) {
	h := fnv.New64a()
	h.Write([]byte(url))
	seed := h.Sum64()
	header := fmt.Sprintf("# input fetched from %s\n", url)
	buf := append(make([]byte, 0, len(header)+4096), header...)
	for range 4096 {
		seed = seed*6364136223846793005 + 1442695040888963407
		buf = append(buf, byte(seed>>33))
	}
	return buf, nil
}

// ContentSHA256 computes the digest DefaultFetcher's content will
// have — used when registering applications with simulated inputs.
func ContentSHA256(url string) string {
	data, _ := DefaultFetcher(url)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// FetchInputs downloads (or reuses) every input the workspace's
// experiments need into <root>/inputs/, verifying checksums. A digest
// mismatch is a hard error — corrupted inputs must never produce
// benchmark numbers.
func (w *Workspace) FetchInputs(fetch Fetcher) error {
	if fetch == nil {
		fetch = DefaultFetcher
	}
	w.put("inputs", "", fs.ModeDir|0o755)
	done := map[string]bool{}
	for _, e := range w.Experiments {
		for _, in := range e.App.InputsFor(e.Workload) {
			if done[in.Name] {
				continue
			}
			done[in.Name] = true
			path := filepath.Join("inputs", in.Name)
			if data, err := w.read(path); err == nil {
				if digestOK([]byte(data), in.SHA256) {
					continue // cached and intact
				}
				// Cached but corrupt: refetch.
			}
			data, err := fetch(in.URL)
			if err != nil {
				return fmt.Errorf("ramble: fetching input %s from %s: %w", in.Name, in.URL, err)
			}
			if !digestOK(data, in.SHA256) {
				sum := sha256.Sum256(data)
				return fmt.Errorf("ramble: input %s: checksum mismatch (got %s, want %s)",
					in.Name, hex.EncodeToString(sum[:])[:16], strings.TrimSpace(in.SHA256)[:16])
			}
			w.put(path, string(data), 0o644)
		}
	}
	return nil
}

func digestOK(data []byte, want string) bool {
	if want == "" {
		return false
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]) == strings.ToLower(strings.TrimSpace(want))
}

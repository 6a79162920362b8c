// Collaboration demonstrates the paper's core promise (Sections 2, 5,
// 7.1): an experiment is *functionally reproducible* when its full
// specification travels with its results. Site A runs a suite,
// archives the workspace (configs + lockfile + outputs), and ships
// the archive; Site B extracts it, rebuilds the exact software stack
// from the lockfile alone — hash-verified — and reruns the identical
// experiments, comparing figures of merit without any person-to-person
// back and forth ("Benchpark will alleviate the inter-person
// (mis-)communication", Section 7.1).
//
//	go run ./examples/collaboration
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/install"
	"repro/internal/pkgrepo"
	"repro/internal/ramble"
)

func main() {
	if err := run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "collaboration:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	// ---------------- Site A (LLNL): run and publish -----------------
	fmt.Println("== Site A (LLNL, cts1): run the saxpy suite and publish ==")
	siteADir, err := os.MkdirTemp("", "siteA-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(siteADir)
	bpA := core.New()
	sessA, err := bpA.Setup("saxpy/openmp", "cts1", siteADir)
	if err != nil {
		return err
	}
	repA, _, err := sessA.Run(ctx, core.RunOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("site A: %d/%d experiments passed\n", repA.Succeeded, repA.Total)

	// Publish: the workspace archive + the environment lockfile.
	pub, err := os.MkdirTemp("", "published-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(pub)
	archivePath := filepath.Join(pub, "siteA-workspace.tar.gz")
	if err := sessA.Workspace.Archive(archivePath); err != nil {
		return err
	}
	saxpyEnv := sessA.Envs["saxpy"]
	lock, err := saxpyEnv.Lock()
	if err != nil {
		return err
	}
	lockPath := filepath.Join(pub, "spack.lock")
	if err := os.WriteFile(lockPath, lock, 0o644); err != nil {
		return err
	}
	fi, _ := os.Stat(archivePath)
	fmt.Printf("published: %s (%d bytes) + spack.lock (%d packages)\n",
		filepath.Base(archivePath), fi.Size(), saxpyEnv.DistinctInstalls())

	// ---------------- Site B (RIKEN): reproduce ----------------------
	fmt.Println("\n== Site B: reproduce from the published artifacts alone ==")
	extractDir, err := os.MkdirTemp("", "siteB-extract-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(extractDir)
	files, err := ramble.ExtractArchive(archivePath, extractDir)
	if err != nil {
		return err
	}
	fmt.Printf("extracted %d files; auditing site A's outputs:\n", len(files))
	outFiles := 0
	for _, f := range files {
		if filepath.Ext(f) == ".out" {
			outFiles++
		}
	}
	fmt.Printf("  %d experiment outputs with their exact batch scripts and configs\n", outFiles)

	// Rebuild the software stack from the lockfile, hash-verified.
	lockData, err := os.ReadFile(lockPath)
	if err != nil {
		return err
	}
	instB := install.New(pkgrepo.Builtin())
	repInstall, err := env.InstallFromLock(ctx, lockData, instB)
	if err != nil {
		return err
	}
	fmt.Printf("site B rebuilt the stack from spack.lock: %d built, %d externals (hashes verified)\n",
		repInstall.Count(install.Built), repInstall.Count(install.UsedExternal))

	// Rerun the same suite on site B's own twin partition and compare.
	fmt.Println("\n== Site B reruns the identical experiments ==")
	siteBDir, err := os.MkdirTemp("", "siteB-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(siteBDir)
	bpB := core.New()
	sessB, err := bpB.Setup("saxpy/openmp", "cts1", siteBDir)
	if err != nil {
		return err
	}
	repB, _, err := sessB.Run(ctx, core.RunOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("%-32s %-16s %-16s %s\n", "experiment", "site A time(s)", "site B time(s)", "match")
	mismatch := 0
	fomA := map[string]string{}
	for _, e := range repA.Experiments {
		fomA[e.Name] = e.FOMs["saxpy_time"]
	}
	for _, e := range repB.Experiments {
		match := "✓"
		if fomA[e.Name] != e.FOMs["saxpy_time"] {
			match = "DIFFERS"
			mismatch++
		}
		fmt.Printf("%-32s %-16s %-16s %s\n", e.Name, fomA[e.Name], e.FOMs["saxpy_time"], match)
	}
	if mismatch > 0 {
		return fmt.Errorf("%d experiments did not reproduce", mismatch)
	}
	fmt.Println("\nEvery figure of merit reproduced bit-for-bit from the shared manifests:")
	fmt.Println("functional reproducibility, with zero cross-site coordination.")
	return nil
}

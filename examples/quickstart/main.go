// Quickstart walks the paper's Figure 1c nine-step workflow
// explicitly: clone Benchpark, pick a system profile and a benchmark
// suite template, generate the workspace, let Ramble build the
// software through Spack, render and submit the batch scripts, and
// analyze the figures of merit.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "benchpark-quickstart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Println("Step 1: user clones the Benchpark repository")
	fmt.Println("  > git clone benchpark   (simulated: core.New())")
	bp := core.New()

	fmt.Println("\nStep 2: user runs Benchpark with a system profile and suite template")
	fmt.Printf("  > /bin/benchpark saxpy/openmp cts1 %s\n", dir)
	fmt.Println("\nSteps 3-4: Benchpark clones Spack and Ramble, generates the workspace config")
	sess, err := bp.Setup("saxpy/openmp", "cts1", dir)
	if err != nil {
		return err
	}
	fmt.Println("  generated configs:")
	for _, f := range []string{"compilers.yaml", "packages.yaml", "spack.yaml", "variables.yaml", "ramble.yaml"} {
		fmt.Printf("    configs/%s\n", f)
	}

	fmt.Println("\nSteps 5-7: ramble workspace setup (Spack builds each benchmark, scripts rendered)")
	if err := sess.Workspace.Setup(); err != nil {
		return err
	}
	// Re-configure to run the real software install too.
	sess2, err := bp.Setup("saxpy/openmp", "cts1", dir)
	if err != nil {
		return err
	}
	fmt.Println("\nSteps 8-9: ramble on + ramble workspace analyze")
	rep, erep, err := sess2.Run(context.Background(), core.RunOptions{})
	if err != nil {
		return err
	}
	// A workspace lives in memory until saved; this one is about to be
	// shown.
	if err := sess2.Workspace.Save(); err != nil {
		return err
	}

	fmt.Println("\nGenerated workspace (Figure 1a):")
	if err := printTree(dir, 3); err != nil {
		return err
	}

	fmt.Printf("\nResults: %d experiments, %d succeeded\n", rep.Total, rep.Succeeded)
	fmt.Printf("%-32s %-10s %-14s %s\n", "experiment", "status", "saxpy_time(s)", "success FOM")
	for _, e := range rep.Experiments {
		fmt.Printf("%-32s %-10s %-14s %s\n", e.Name, e.Status, e.FOMs["saxpy_time"], e.FOMs["success"])
	}
	if rep.Failed > 0 {
		return &core.ExperimentFailuresError{Report: erep}
	}

	fmt.Printf("\nSoftware environment (locked): %s\n", strings.Join(sess2.Envs["saxpy"].PackageNames(), ", "))

	one := rep.Experiments[0]
	fmt.Printf("\nRendered batch script for %s:\n", one.Name)
	for _, line := range strings.Split(strings.TrimSpace(one.Script), "\n") {
		fmt.Println("  " + line)
	}
	return nil
}

// printTree prints a trimmed directory tree.
func printTree(root string, maxDepth int) error {
	return walk(root, "", 0, maxDepth)
}

func walk(dir, prefix string, depth, maxDepth int) error {
	if depth > maxDepth {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, e := range entries {
		fmt.Printf("%s|- %s\n", prefix, e.Name())
		if e.IsDir() {
			if err := walk(filepath.Join(dir, e.Name()), prefix+"   ", depth+1, maxDepth); err != nil {
				return err
			}
		}
	}
	return nil
}

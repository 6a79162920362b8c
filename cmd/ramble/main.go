// Command ramble exposes the Figure 5 workflow of the paper as a
// standalone CLI, one command per invocation over a persistent
// workspace directory:
//
//	ramble workspace create  -d DIR --suite saxpy/openmp --system cts1
//	ramble workspace setup   -d DIR
//	ramble on                -d DIR
//	ramble workspace analyze -d DIR
//	ramble workspace archive -d DIR -o out.tar.gz
//
// State lives entirely in the workspace directory (configs/,
// experiments/, logs/): each invocation reloads ramble.yaml, and
// analyze finds the .out files a previous `ramble on` produced —
// mirroring how the real Ramble operates across shell commands.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/hpcsim"
	"repro/internal/ramble"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ramble:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Println(`usage:
  ramble workspace create  -d DIR --suite <suite> --system <system>
  ramble workspace setup   -d DIR
  ramble on                -d DIR
  ramble workspace analyze -d DIR
  ramble workspace archive -d DIR -o <out.tar.gz>`)
}

// parseFlags extracts simple "-flag value" pairs.
func parseFlags(args []string) (map[string]string, error) {
	out := map[string]string{}
	for i := 0; i < len(args); i++ {
		key := args[i]
		if len(key) == 0 || key[0] != '-' {
			return nil, fmt.Errorf("unexpected argument %q", key)
		}
		for len(key) > 0 && key[0] == '-' {
			key = key[1:]
		}
		if i+1 >= len(args) {
			return nil, fmt.Errorf("flag -%s needs a value", key)
		}
		out[key] = args[i+1]
		i++
	}
	return out, nil
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "workspace":
		if len(args) < 2 {
			usage()
			return fmt.Errorf("workspace needs a subcommand")
		}
		flags, err := parseFlags(args[2:])
		if err != nil {
			return err
		}
		switch args[1] {
		case "create":
			return createCmd(flags)
		case "setup":
			return setupCmd(flags)
		case "analyze":
			return analyzeCmd(flags)
		case "archive":
			return archiveCmd(flags)
		}
		usage()
		return fmt.Errorf("unknown workspace subcommand %q", args[1])
	case "on":
		flags, err := parseFlags(args[1:])
		if err != nil {
			return err
		}
		return onCmd(flags)
	case "help", "-h", "--help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown command %q", args[0])
}

func needDir(flags map[string]string) (string, error) {
	dir := flags["d"]
	if dir == "" {
		return "", fmt.Errorf("missing -d <workspace-dir>")
	}
	return dir, nil
}

// createCmd materializes a workspace with system configs and the
// suite's ramble.yaml, but does not set it up yet.
func createCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	suite, system := flags["suite"], flags["system"]
	if suite == "" || system == "" {
		return fmt.Errorf("create needs --suite and --system")
	}
	bp := core.New()
	sess, err := bp.Setup(suite, system, dir)
	if err != nil {
		return err
	}
	if err := sess.Workspace.Save(); err != nil {
		return err
	}
	fmt.Printf("==> created workspace %s (%s on %s)\n", dir, suite, system)
	fmt.Println("    edit configs/ramble.yaml, then: ramble workspace setup -d", dir)
	return nil
}

// loadWorkspace reopens a workspace directory created earlier.
func loadWorkspace(dir string) (*ramble.Workspace, *hpcsim.System, error) {
	data, err := os.ReadFile(filepath.Join(dir, "configs", "ramble.yaml"))
	if err != nil {
		return nil, nil, fmt.Errorf("no workspace at %s (run `ramble workspace create` first): %w", dir, err)
	}
	w, err := ramble.NewWorkspace(filepath.Base(dir), dir)
	if err != nil {
		return nil, nil, err
	}
	if err := w.Configure(string(data)); err != nil {
		return nil, nil, err
	}
	sysName := ""
	if vars := w.Effective().GetMap("variables"); vars != nil {
		sysName = vars.GetString("system")
	}
	if sysName == "" {
		return nil, nil, fmt.Errorf("configs/variables.yaml does not name the system")
	}
	sys, err := hpcsim.Get(sysName)
	if err != nil {
		return nil, nil, err
	}
	return w, sys, nil
}

// setupCmd regenerates experiments and installs the software stack.
func setupCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	w, sys, err := loadWorkspace(dir)
	if err != nil {
		return err
	}
	// Reuse the Benchpark session machinery for the Spack install hook.
	bp := core.New()
	sess, err := core.NewSessionForWorkspace(bp, sys, w)
	if err != nil {
		return err
	}
	if err := w.Setup(sess.InstallSoftware); err != nil {
		return err
	}
	if err := w.Save(); err != nil {
		return err
	}
	fmt.Printf("==> setup complete: %d experiments generated, software installed (%d packages)\n",
		len(w.Experiments), sess.Installer.DB.Len())
	return nil
}

// onCmd executes all experiments.
func onCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	w, sys, err := loadWorkspace(dir)
	if err != nil {
		return err
	}
	bp := core.New()
	sess, err := core.NewSessionForWorkspace(bp, sys, w)
	if err != nil {
		return err
	}
	if err := w.Setup(sess.InstallSoftware); err != nil {
		return err
	}
	if err := w.On(sess.Executor); err != nil {
		return err
	}
	if err := w.Save(); err != nil {
		return err
	}
	fmt.Printf("==> executed %d experiments on %s (outputs in experiments/)\n",
		len(w.Experiments), sys.Name)
	return nil
}

// analyzeCmd extracts FOMs from outputs already on disk.
func analyzeCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	w, _, err := loadWorkspace(dir)
	if err != nil {
		return err
	}
	if err := w.Setup(nil); err != nil {
		return err
	}
	// Recover outputs from a previous `ramble on` invocation.
	executed := 0
	for _, e := range w.Experiments {
		data, err := os.ReadFile(filepath.Join(e.Dir, e.Name+".out"))
		if err != nil {
			e.Status = ramble.Failed
			e.FailMsg = "no output (did `ramble on` run?)"
			continue
		}
		e.Output = string(data)
		e.Status = ramble.Succeeded
		executed++
	}
	rep, err := w.Analyze()
	if err != nil {
		return err
	}
	fmt.Printf("==> analyzed %d experiments: %d succeeded, %d failed\n",
		rep.Total, rep.Succeeded, rep.Failed)
	for _, e := range rep.Experiments {
		fmt.Printf("  %-36s %-9s", e.Name, e.Status)
		for _, k := range sortedFOMKeys(e.FOMs) {
			if k == "success" {
				continue
			}
			fmt.Printf(" %s=%s", k, e.FOMs[k])
		}
		fmt.Println()
	}
	return nil
}

func sortedFOMKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// archiveCmd bundles the workspace for sharing.
func archiveCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	out := flags["o"]
	if out == "" {
		return fmt.Errorf("missing -o <out.tar.gz>")
	}
	w, _, err := loadWorkspace(dir)
	if err != nil {
		return err
	}
	if err := w.Setup(nil); err != nil {
		return err
	}
	if err := w.Archive(out); err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("==> archived %s (%d bytes)\n", out, fi.Size())
	return nil
}

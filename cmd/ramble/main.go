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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"

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

// flagNames lists each workspace subcommand's flags besides -d.
var flagNames = map[string][]string{"create": {"suite", "system"}, "archive": {"o"}}

// parseFlags parses a command's flags with the standard flag package:
// -d and the named string flags, each as -x v, --x v or --x=v. An
// unknown flag or a positional argument is an error.
func parseFlags(args []string, names ...string) (map[string]string, error) {
	fs := flag.NewFlagSet("ramble", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	vals := map[string]*string{"d": fs.String("d", "", "workspace directory")}
	for _, name := range names {
		vals[name] = fs.String(name, "", "")
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	flags := make(map[string]string, len(vals))
	for name, v := range vals {
		flags[name] = *v
	}
	return flags, nil
}

func run(args []string) (err error) {
	defer func() {
		if errors.Is(err, flag.ErrHelp) { // -h or --help after a command
			usage()
			err = nil
		}
	}()
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
		flags, err := parseFlags(args[2:], flagNames[args[1]]...)
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
	// The suite goes next to the system variable, for the commands
	// that reopen the workspace (loadWorkspace).
	files, err := core.SystemConfigs(sess.System)
	if err != nil {
		return err
	}
	sess.Workspace.WriteConfig("variables.yaml", files["variables.yaml"]+"  suite: "+suite+"\n")
	if err := sess.Workspace.Save(); err != nil {
		return err
	}
	fmt.Printf("==> created workspace %s (%s on %s)\n", dir, suite, system)
	fmt.Println("    edit configs/ramble.yaml, then: ramble workspace setup -d", dir)
	return nil
}

// loadWorkspace reopens a workspace directory created earlier, with
// the system and the suite its variables name. A workspace that names
// no suite (one `benchpark run` generated) is named after its
// directory.
func loadWorkspace(dir string) (w *ramble.Workspace, sys *hpcsim.System, suite string, err error) {
	data, err := os.ReadFile(filepath.Join(dir, "configs", "ramble.yaml"))
	if err != nil {
		return nil, nil, "", fmt.Errorf("no workspace at %s (run `ramble workspace create` first): %w", dir, err)
	}
	if w, err = ramble.NewWorkspace(filepath.Base(dir), dir); err != nil {
		return nil, nil, "", err
	}
	if err := w.Configure(string(data)); err != nil {
		return nil, nil, "", err
	}
	vars := w.Effective().GetMap("variables")
	sysName := vars.GetString("system")
	if sysName == "" {
		return nil, nil, "", fmt.Errorf("configs/variables.yaml does not name the system")
	}
	if sys, err = hpcsim.Get(sysName); err != nil {
		return nil, nil, "", err
	}
	if suite = vars.GetString("suite"); suite == "" {
		suite = w.Name
	}
	return w, sys, suite, nil
}

// loadSession reopens a workspace directory as a session of the suite
// it was created for.
func loadSession(dir string) (*core.Session, error) {
	w, sys, suite, err := loadWorkspace(dir)
	if err != nil {
		return nil, err
	}
	return core.NewSessionForWorkspace(core.New(), sys, suite, w)
}

// setupCmd regenerates experiments and installs the software stack.
func setupCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	// Reuse the Benchpark session machinery for the Spack install hook.
	sess, err := loadSession(dir)
	if err != nil {
		return err
	}
	w := sess.Workspace
	if err := w.Setup(); err != nil {
		return err
	}
	if err := sess.Install(context.Background()); err != nil {
		return err
	}
	if err := w.Save(); err != nil {
		return err
	}
	fmt.Printf("==> setup complete: %d experiments generated, software installed (%d packages)\n",
		len(w.Experiments), sess.Installer.DB.Len())
	return nil
}

// onCmd executes all experiments the way `benchpark <suite> <system>
// <dir>` does: one Session.Run over the reopened workspace, which
// applies the success criteria and leaves logs/results.json.
func onCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	sess, err := loadSession(dir)
	if err != nil {
		return err
	}
	rep, _, err := sess.Run(context.Background(), core.RunOptions{})
	// Keep the workspace, a failed run's partial one included.
	if serr := sess.Workspace.Save(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	fmt.Printf("==> executed %d experiments on %s: %d succeeded, %d failed (outputs in experiments/)\n",
		rep.Total, sess.System.Name, rep.Succeeded, rep.Failed)
	for _, e := range rep.Experiments {
		if e.Status == ramble.Failed {
			fmt.Printf("  %-36s %-9s %s\n", e.Name, e.Status, e.FailMsg)
		}
	}
	return nil
}

// analyzeCmd extracts FOMs from outputs already on disk.
func analyzeCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	w, _, _, err := loadWorkspace(dir)
	if err != nil {
		return err
	}
	if err := w.Setup(); err != nil {
		return err
	}
	// Recover outputs from a previous `ramble on` invocation.
	executed := 0
	for _, e := range w.Experiments {
		data, err := os.ReadFile(filepath.Join(e.Dir, e.Name+".out"))
		if err != nil {
			e.Status = ramble.Failed
			e.FailMsg = "no output (`ramble on` did not run it, or it failed)"
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
		if e.Status == ramble.Failed {
			fmt.Printf(" %s", e.FailMsg)
		}
		for _, k := range slices.Sorted(maps.Keys(e.FOMs)) {
			if k == "success" {
				continue
			}
			fmt.Printf(" %s=%s", k, e.FOMs[k])
		}
		fmt.Println()
	}
	return nil
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
	w, _, _, err := loadWorkspace(dir)
	if err != nil {
		return err
	}
	if err := w.Setup(); err != nil {
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

// Command spack exposes the paper's Figure 2 environment workflow as
// a standalone CLI, one command per invocation, with the
// manifest-and-lock state persisted in the environment directory:
//
//	spack env create --dir D --system cts1
//	spack add amg2023+caliper --dir D
//	spack concretize --dir D            (writes spack.lock)
//	spack install --dir D               (reads spack.lock, writes installdb.json)
//	spack find --dir D
//	spack uninstall --dir D <package>
//
// The directory after these commands contains spack.yaml (Figure 3),
// configs/ (Figures 4/9/12 per system), spack.lock, and
// installdb.json — the complete reproducible state of Section 3.1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/concretizer"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/hpcsim"
	"repro/internal/install"
	"repro/internal/pkgrepo"
	"repro/internal/spec"
	"repro/internal/yamlite"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spack:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Println(`usage:
  spack env create --dir D --system <system>
  spack add <spec> --dir D
  spack concretize --dir D
  spack install --dir D
  spack find --dir D
  spack uninstall <package> --dir D`)
}

// parseArgs parses a command's flags with the standard flag package —
// --dir and the named string flags, each as -x v, --x v or --x=v,
// before or after the positional arguments — and returns the
// positional arguments in order. An unknown flag is an error.
func parseArgs(args []string, names ...string) (pos []string, flags map[string]string, err error) {
	fs := flag.NewFlagSet("spack", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	vals := map[string]*string{"dir": fs.String("dir", "", "environment directory")}
	for _, name := range names {
		vals[name] = fs.String(name, "", "")
	}
	for {
		if err := fs.Parse(args); err != nil {
			return nil, nil, err
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
	flags = make(map[string]string, len(vals))
	for name, v := range vals {
		flags[name] = *v
	}
	return pos, flags, nil
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
	cmd := args[0]
	rest := args[1:]
	var names []string
	if cmd == "env" {
		if len(rest) == 0 || rest[0] != "create" {
			usage()
			return fmt.Errorf("only `spack env create` is supported")
		}
		rest = rest[1:]
		cmd, names = "env-create", []string{"system"}
	}
	pos, flags, err := parseArgs(rest, names...)
	if err != nil {
		return err
	}
	switch cmd {
	case "env-create":
		return envCreate(flags)
	case "add":
		return addSpec(pos, flags)
	case "concretize":
		return concretize(flags)
	case "install":
		return installCmd(flags)
	case "find":
		return findCmd(flags)
	case "uninstall":
		return uninstallCmd(pos, flags)
	case "help", "-h", "--help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown command %q", cmd)
}

func needDir(flags map[string]string) (string, error) {
	d := flags["dir"]
	if d == "" {
		return "", fmt.Errorf("missing --dir")
	}
	return d, nil
}

// envCreate writes an empty manifest plus the system's config scope.
func envCreate(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	sysName := flags["system"]
	if sysName == "" {
		return fmt.Errorf("missing --system")
	}
	sys, err := hpcsim.Get(sysName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "configs"), 0o755); err != nil {
		return err
	}
	files, err := core.SystemConfigs(sys)
	if err != nil {
		return err
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, "configs", name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	e := env.New(filepath.Base(dir))
	manifest := e.ManifestYAML()
	// Record the system so later invocations rebuild the config scope.
	manifest += "  system: " + sysName + "\n"
	if err := os.WriteFile(filepath.Join(dir, "spack.yaml"), []byte(manifest), 0o644); err != nil {
		return err
	}
	fmt.Printf("==> created environment in %s for system %s\n", dir, sysName)
	return nil
}

// loadEnv reopens the environment directory.
func loadEnv(dir string) (*env.Environment, *hpcsim.System, error) {
	data, err := os.ReadFile(filepath.Join(dir, "spack.yaml"))
	if err != nil {
		return nil, nil, fmt.Errorf("no environment at %s (run `spack env create` first): %w", dir, err)
	}
	e, err := env.FromManifestYAML(filepath.Base(dir), string(data))
	if err != nil {
		return nil, nil, err
	}
	doc, err := yamlite.ParseMap(string(data))
	if err != nil {
		return nil, nil, err
	}
	sysName := doc.GetMap("spack").GetString("system")
	if sysName == "" {
		return nil, nil, fmt.Errorf("spack.yaml does not record the system")
	}
	sys, err := hpcsim.Get(sysName)
	if err != nil {
		return nil, nil, err
	}
	return e, sys, nil
}

func saveEnv(dir string, e *env.Environment, sysName string) error {
	manifest := e.ManifestYAML() + "  system: " + sysName + "\n"
	return os.WriteFile(filepath.Join(dir, "spack.yaml"), []byte(manifest), 0o644)
}

func addSpec(pos []string, flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: spack add <spec> --dir D")
	}
	e, sys, err := loadEnv(dir)
	if err != nil {
		return err
	}
	if err := e.Add(pos[0]); err != nil {
		return err
	}
	if err := saveEnv(dir, e, sys.Name); err != nil {
		return err
	}
	fmt.Printf("==> added %s to %s\n", pos[0], dir)
	return nil
}

func concretize(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	e, sys, err := loadEnv(dir)
	if err != nil {
		return err
	}
	cfg, err := core.ConcretizerConfig(sys)
	if err != nil {
		return err
	}
	c := concretizer.New(pkgrepo.Builtin(), cfg)
	if err := e.Concretize(c); err != nil {
		return err
	}
	lock, err := e.Lock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spack.lock"), lock, 0o644); err != nil {
		return err
	}
	fmt.Printf("==> concretized %d roots (%d packages); lockfile written\n", len(e.Roots), e.DistinctInstalls())
	for _, root := range e.Roots {
		fmt.Print(spec.FormatTree(root))
	}
	return nil
}

// loadDB reads the persisted install database (empty if absent).
func loadDB(dir string) (*install.Database, error) {
	data, err := os.ReadFile(filepath.Join(dir, "installdb.json"))
	if os.IsNotExist(err) {
		return install.NewDatabase(), nil
	}
	if err != nil {
		return nil, err
	}
	return install.LoadDatabaseJSON(string(data))
}

func saveDB(dir string, db *install.Database) error {
	js, err := db.SaveJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "installdb.json"), []byte(js), 0o644)
}

func installCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	lock, err := os.ReadFile(filepath.Join(dir, "spack.lock"))
	if err != nil {
		return fmt.Errorf("no lockfile (run `spack concretize` first): %w", err)
	}
	db, err := loadDB(dir)
	if err != nil {
		return err
	}
	inst := install.New(pkgrepo.Builtin())
	inst.DB = db
	rep, err := env.InstallFromLock(context.Background(), lock, inst)
	if err != nil {
		return err
	}
	if err := saveDB(dir, db); err != nil {
		return err
	}
	fmt.Printf("==> installed: %d built, %d from externals, %d already present (%.0fs simulated)\n",
		rep.Count(install.Built), rep.Count(install.UsedExternal),
		rep.Count(install.AlreadyInstalled), rep.Makespan)
	return nil
}

func findCmd(flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	db, err := loadDB(dir)
	if err != nil {
		return err
	}
	recs := db.Find(spec.New(""))
	fmt.Printf("==> %d installed packages\n", len(recs))
	for _, r := range recs {
		marker := " "
		if r.External {
			marker = "e"
		}
		fmt.Printf("%s %s  %s@%s\n", marker, r.Hash[:7], r.Spec.Name, r.Spec.ConcreteVersion())
	}
	return nil
}

func uninstallCmd(pos []string, flags map[string]string) error {
	dir, err := needDir(flags)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: spack uninstall <package> --dir D")
	}
	db, err := loadDB(dir)
	if err != nil {
		return err
	}
	recs := db.Find(spec.MustParse(pos[0]))
	if len(recs) == 0 {
		return fmt.Errorf("no installed package matches %q", pos[0])
	}
	for _, r := range recs {
		db.Remove(r.Hash)
	}
	if err := saveDB(dir, db); err != nil {
		return err
	}
	fmt.Printf("==> uninstalled %d package(s) matching %s\n", len(recs), pos[0])
	return nil
}

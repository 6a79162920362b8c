package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigure2AsShellCommands drives the exact five commands of the
// paper's Figure 2 as separate invocations with on-disk state.
func TestFigure2AsShellCommands(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "envdir")
	// spack env create --dir . (+ activation = operating on the dir)
	if err := run([]string{"env", "create", "--dir", dir, "--system", "cts1"}); err != nil {
		t.Fatalf("env create: %v", err)
	}
	// spack add amg2023+caliper
	if err := run([]string{"add", "amg2023+caliper", "--dir", dir}); err != nil {
		t.Fatalf("add: %v", err)
	}
	manifest, _ := os.ReadFile(filepath.Join(dir, "spack.yaml"))
	if !strings.Contains(string(manifest), "amg2023+caliper") {
		t.Fatalf("manifest missing spec:\n%s", manifest)
	}
	// spack concretize
	if err := run([]string{"concretize", "--dir", dir}); err != nil {
		t.Fatalf("concretize: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "spack.lock")); err != nil {
		t.Fatal("lockfile not written")
	}
	// spack install
	if err := run([]string{"install", "--dir", dir}); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "installdb.json")); err != nil {
		t.Fatal("install database not persisted")
	}
	// spack find (fresh invocation reads the persisted database)
	if err := run([]string{"find", "--dir", dir}); err != nil {
		t.Fatalf("find: %v", err)
	}
	// A second install is a no-op against the persisted database.
	if err := run([]string{"install", "--dir", dir}); err != nil {
		t.Fatalf("reinstall: %v", err)
	}
	// uninstall
	if err := run([]string{"uninstall", "amg2023", "--dir", dir}); err != nil {
		t.Fatalf("uninstall: %v", err)
	}
	if err := run([]string{"uninstall", "amg2023", "--dir", dir}); err == nil {
		t.Error("double uninstall should fail")
	}
}

func TestSpackCLIErrors(t *testing.T) {
	for _, args := range [][]string{
		{"add", "zlib", "--dir", "/no-such-env"},
		{"concretize", "--dir", "/no-such-env"},
		{"install", "--dir", t.TempDir()},       // no lockfile
		{"env", "create", "--dir", t.TempDir()}, // no system
		{"env", "create", "--system", "cts1"},   // no dir
		{"bogus"},
		{"add", "--dir", t.TempDir()},                     // no spec positional
		{"find", "--dir", t.TempDir(), "--sytem", "ats2"}, // unknown flag
		{"install", "--dir"},                              // flag without its value
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
	if err := run(nil); err != nil {
		t.Errorf("usage: %v", err)
	}
}

// TestDatabasePersistenceAcrossCommands: hashes survive the JSON
// round trip with integrity verification.
func TestDatabasePersistenceAcrossCommands(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "envdir")
	for _, args := range [][]string{
		{"env", "create", "--dir", dir, "--system", "cts1"},
		{"add", "--dir", dir, "zlib %gcc"}, // flags go anywhere; a quoted spec is one argument
		{"concretize", "--dir", dir},
		{"install", "--dir", dir},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	db, err := loadDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("empty database after install")
	}
	if manifest, _ := os.ReadFile(filepath.Join(dir, "spack.yaml")); !strings.Contains(string(manifest), "zlib%gcc") {
		t.Errorf("manifest lacks zlib%%gcc:\n%s", manifest)
	}
	// Tampering with the persisted file is detected on load.
	path := filepath.Join(dir, "installdb.json")
	data, _ := os.ReadFile(path)
	evil := strings.Replace(string(data), "1.2.12", "1.2.11", -1)
	if evil != string(data) {
		if err := os.WriteFile(path, []byte(evil), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadDB(dir); err == nil {
			t.Error("tampered database must fail integrity verification")
		}
	}
}

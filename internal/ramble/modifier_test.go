package ramble

import (
	"strings"
	"testing"
)

func TestBuiltinModifiersRegistered(t *testing.T) {
	names := ModifierNames()
	for _, want := range []string{"caliper", "papi"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("modifier %s not registered (have %v)", want, names)
		}
	}
	if _, err := GetModifier("nonexistent"); err == nil {
		t.Error("unknown modifier should error")
	}
}

func TestModifierValidation(t *testing.T) {
	bad := &Modifier{Name: "bad", FOMs: []FOM{{Name: "f", Regex: "(?P<x>"}}}
	if err := bad.Validate(); err == nil {
		t.Error("bad regex should fail validation")
	}
	bad2 := &Modifier{Name: "bad2", FOMs: []FOM{{Name: "f", Regex: `(?P<x>\d+)`, GroupName: "missing"}}}
	if err := bad2.Validate(); err == nil {
		t.Error("missing group should fail validation")
	}
	if err := (&Modifier{}).Validate(); err == nil {
		t.Error("empty name should fail validation")
	}
}

func TestModifierExtractFOMs(t *testing.T) {
	papi, err := GetModifier("papi")
	if err != nil {
		t.Fatal(err)
	}
	out := papi.ExtractFOMs("papi.PAPI_FP_OPS: 1.234000e+09\npapi.PAPI_L3_TCM: 5.0e+06\n")
	if out["papi_fp_ops"] != "1.234000e+09" {
		t.Errorf("fp_ops = %q", out["papi_fp_ops"])
	}
	if out["papi_l3_tcm"] != "5.0e+06" {
		t.Errorf("l3_tcm = %q", out["papi_l3_tcm"])
	}
	if got := papi.ExtractFOMs("no counters here"); len(got) != 0 {
		t.Errorf("spurious FOMs: %v", got)
	}
}

// TestModifiersInWorkspace exercises the Section 4.5 flow: a workload
// with the papi and caliper modifiers gets extra variables, env vars,
// and FOMs extracted from the hardware-counter output.
func TestModifiersInWorkspace(t *testing.T) {
	w, err := NewWorkspace("mods", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          modifiers:
          - papi
          - caliper
          experiments:
            saxpy_mod_{n}:
              variables:
                n: '512'
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if len(w.Experiments) != 1 {
		t.Fatalf("experiments = %d", len(w.Experiments))
	}
	e := w.Experiments[0]
	if len(e.Modifiers) != 2 {
		t.Errorf("modifiers = %v", e.Modifiers)
	}
	// Modifier variables applied as defaults.
	if v, _ := e.Expander.Expand("{papi}"); v != "1" {
		t.Errorf("papi var = %q", v)
	}
	if v, _ := e.Expander.Expand("{caliper}"); v != "1" {
		t.Errorf("caliper var = %q", v)
	}
	// Modifier env vars rendered (with expansion of run dir).
	if e.Env["PAPI_EVENTS"] != "PAPI_FP_OPS,PAPI_L3_TCM" {
		t.Errorf("env = %v", e.Env)
	}
	if !strings.Contains(e.Env["CALI_CONFIG"], e.Dir) {
		t.Errorf("CALI_CONFIG = %q should reference run dir", e.Env["CALI_CONFIG"])
	}

	// Each experiment printed PAPI-style output; analyze must pick up the
	// modifier FOMs alongside the application's.
	for _, e := range w.Experiments {
		e.Output = "saxpy_time: 0.002 s\npapi.PAPI_FP_OPS: 8.192000e+03\npapi.PAPI_L3_TCM: 7.680000e+02\nKernel done\n"
		e.Elapsed, e.Status = 0.002, Succeeded
	}
	rep, err := w.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	foms := rep.Experiments[0].FOMs
	if foms["saxpy_time"] != "0.002" {
		t.Errorf("app FOM lost: %v", foms)
	}
	if foms["papi_fp_ops"] != "8.192000e+03" || foms["papi_l3_tcm"] != "7.680000e+02" {
		t.Errorf("modifier FOMs = %v", foms)
	}
}

// TestUnknownModifierRejected: a template that names an unregistered
// modifier fails Setup even when it generates no experiment, because
// every combination is excluded or a vector is empty.
func TestUnknownModifierRejected(t *testing.T) {
	for _, vars := range []string{`
                n: '1'`, `
                n: ['1', '2']
              exclude:
                variables:
                - n: '1'
                - n: '2'`, `
                n: []`,
	} {
		w, err := NewWorkspace("badmod", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          modifiers: [not-a-modifier]
          experiments:
            x_{n}:
              variables:` + vars + "\n"
		if err := w.Configure(cfg); err != nil {
			t.Fatal(err)
		}
		if err := w.Setup(); err == nil || !strings.Contains(err.Error(), `unknown modifier "not-a-modifier"`) {
			t.Errorf("variables %q: err = %v", vars, err)
		}
	}
}

func TestExperimentLevelModifier(t *testing.T) {
	w, err := NewWorkspace("expmod", t.TempDir())
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
            with_papi:
              modifiers: [papi]
              variables:
                n: '1'
            without:
              variables:
                n: '2'
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Experiment{}
	for _, e := range w.Experiments {
		byName[e.Name] = e
	}
	if _, err := byName["with_papi"].Expander.Expand("{papi}"); err != nil {
		t.Error("experiment-level modifier not applied")
	}
	if _, err := byName["without"].Expander.Expand("{papi}"); err == nil {
		t.Error("modifier leaked into sibling experiment")
	}
}

// TestUserVariableBeatsModifierDefault: modifiers contribute defaults.
func TestUserVariableBeatsModifierDefault(t *testing.T) {
	w, err := NewWorkspace("prec", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          modifiers: [papi]
          experiments:
            x:
              variables:
                n: '1'
                papi: '0'
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.Experiments[0].Expander.Expand("{papi}"); v != "0" {
		t.Errorf("papi = %q, user value should win", v)
	}
}

package ramble

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestExpandSimple(t *testing.T) {
	ex := NewExpander(map[string]string{"n": "512", "name": "saxpy"})
	got, err := ex.Expand("{name} -n {n}")
	if err != nil {
		t.Fatal(err)
	}
	if got != "saxpy -n 512" {
		t.Errorf("got %q", got)
	}
}

func TestExpandRecursive(t *testing.T) {
	ex := NewExpander(map[string]string{
		"mpi_command":        "srun -N {n_nodes} -n {n_ranks}",
		"n_nodes":            "2",
		"n_ranks":            "{processes_per_node*n_nodes}",
		"processes_per_node": "8",
	})
	got, err := ex.Expand("{mpi_command}")
	if err != nil {
		t.Fatal(err)
	}
	if got != "srun -N 2 -n 16" {
		t.Errorf("got %q", got)
	}
}

func TestExpandArithmetic(t *testing.T) {
	ex := NewExpander(map[string]string{"a": "6", "b": "4"})
	cases := map[string]string{
		"{a*b}":   "24",
		"{a+b}":   "10",
		"{a-b}":   "2",
		"{a/b}":   "1.5",
		"{a//b}":  "1",
		"{a*b+a}": "30", // left-to-right
		"{a * b}": "24",
		"{2*a}":   "12",
		"{100}":   "100",
	}
	for in, want := range cases {
		got, err := ex.Expand(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("%s = %q, want %q", in, got, want)
		}
	}
}

func TestExpandErrors(t *testing.T) {
	ex := NewExpander(map[string]string{"loop": "{loop}", "s": "abc"})
	for _, in := range []string{
		"{missing}",
		"{loop}",    // circular
		"{unclosed", // unbalanced
		"{}",        // empty
		"{s*2}",     // non-numeric operand
		"{s }{",     // trailing open
		"{2*}",      // trailing operator
	} {
		if _, err := ex.Expand(in); err == nil {
			t.Errorf("Expand(%q): expected error", in)
		}
	}
}

func TestExpandDivisionByZero(t *testing.T) {
	ex := NewExpander(map[string]string{"z": "0"})
	if _, err := ex.Expand("{4/z}"); err == nil {
		t.Error("division by zero should error")
	}
	if _, err := ex.Expand("{4//z}"); err == nil {
		t.Error("integer division by zero should error")
	}
}

func TestExpandFigure10Name(t *testing.T) {
	ex := NewExpander(map[string]string{
		"n": "512", "n_nodes": "1", "n_ranks": "8", "n_threads": "2",
	})
	got, err := ex.Expand("saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}")
	if err != nil {
		t.Fatal(err)
	}
	if got != "saxpy_512_1_8_2" {
		t.Errorf("got %q", got)
	}
}

// Property: text without braces passes through unchanged.
func TestQuickExpandPassthrough(t *testing.T) {
	ex := NewExpander(nil)
	f := func(s string) bool {
		if strings.ContainsAny(s, "{}") {
			return true
		}
		got, err := ex.Expand(s)
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAndVars(t *testing.T) {
	ex := NewExpander(nil)
	ex.Set("k", "v")
	ex.Set("ref", "{k}")
	if v, err := ex.Expand("{ref}"); err != nil || v != "v" {
		t.Errorf("Set then Expand = %q, %v", v, err)
	}
	ex.Set("k", "w") // a later Set must not be hidden by the memo
	if v, err := ex.Expand("{ref}"); err != nil || v != "w" {
		t.Errorf("Expand after a second Set = %q, %v", v, err)
	}
}

// TestExpandVarAgreesWithExpand: ExpandVar(name) is Expand("{"+name+"}"),
// value and error, both for names it resolves directly and for names
// with spaces, operators, braces or surrounding whitespace, numeric
// names and the empty name, which take the template path. Each side
// runs on its own expander, so neither reads the other's memo. (Every
// variable of the nightly matrix is held to the same rule by core's
// TestExperimentKeyMatchesMarshalledStruct.)
func TestExpandVarAgreesWithExpand(t *testing.T) {
	vars := map[string]string{
		"n_nodes": "2", "processes_per_node": "8", "n_ranks": "{processes_per_node*n_nodes}",
		"mpi_command": "srun -N {n_nodes} -n {n_ranks}", "batch_time": "120",
		"experiment_name": "saxpy_{n}_{n_nodes}", "n": "512", "log_dir": "{workspace}/logs",
		"half": "{n/2}", "quot": "{n//3}", "neg": "{n-1024}", "zero": "0", "bad_div": "{n/zero}",
		"undef_ref": "{no_such}", "loop_a": "{loop_b}", "loop_b": "{loop_a}", "not_num": "{mpi_command*2}",
		"open": "{n", "inf": "7", "1e3": "shadowed", "0x10": "hex", "a b": "spaced", " n": "lead",
		"n ": "trail", "a*b": "star", "a+b": "plus", "a-b": "minus", "a/b": "slash", "{n}": "braced",
		"a}b": "close", "tab\tname": "tab", "": "empty", "\u2028n": "separator", "n\u00a0": "nbsp", "é": "accent",
	}
	names := []string{"no_such", "n*2", "n_nodes + n", " n_nodes", "n_nodes\n", "{n}}", "a{b", "12", "-3", "+4.5e1", ".5"}
	for k := range vars {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		want, werr := NewExpander(maps.Clone(vars)).Expand("{" + name + "}")
		got, gerr := NewExpander(maps.Clone(vars)).ExpandVar(name)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("ExpandVar(%q) = %q, %v; Expand gives %q, %v", name, got, gerr, want, werr)
		}
	}
}

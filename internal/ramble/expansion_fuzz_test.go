package ramble

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// expansionCase is one saxpy experiment template: vector variables
// v0, v1, … whose values are distinct ("a0", "a1", … for v0), each
// zipped (group 0) or crossed in matrix ma (1) or mb (2), and at most
// one exclusion. Every variable is in the name, so no two combinations
// share a name.
type expansionCase struct {
	vectors [][]string
	group   []int
	exclude map[string]string
}

// Fixed layers beneath the vectors, so the oracle also checks what
// each layer contributes where no vector sets the variable.
var (
	fuzzGlobals    = map[string]string{"v3": "g", "layer": "g", "n": "g"}
	fuzzWorkload   = map[string]string{"v2": "w", "v3": "w", "layer": "w"}
	fuzzScalars    = map[string]string{"layer": "s", "scalar": "s"}
	fuzzAppDefault = map[string]string{"n": "1"} // saxpy's problem workload
)

// newExpansionCase decodes fuzz input: nvars picks 1–4 variables, two
// bits of lens each one's length (0–3), two bits of groups each one's
// group (3 counts as zipped), and excl an optional exclusion of one or
// two variables, whose values may lie outside the vectors.
func newExpansionCase(nvars, lens, groups, excl uint8) expansionCase {
	var c expansionCase
	for i := range int(nvars%4) + 1 {
		vals := make([]string, lens>>(2*i)&3)
		for j := range vals {
			vals[j] = fmt.Sprintf("%c%d", 'a'+i, j)
		}
		c.vectors = append(c.vectors, vals)
		c.group = append(c.group, int(groups>>(2*i)&3)%3)
	}
	if excl&1 != 0 {
		n := len(c.vectors)
		c.exclude = map[string]string{}
		for _, b := range []uint8{excl >> 1, excl >> 4} {
			i := int(b&7) % n
			c.exclude[fmt.Sprintf("v%d", i)] = fmt.Sprintf("%c%d", 'a'+i, b>>3&3)
			if excl&0x80 == 0 {
				break
			}
		}
	}
	return c
}

func (c expansionCase) nameTemplate() string {
	name := "fz"
	for i := range c.vectors {
		name += fmt.Sprintf("_{v%d}", i)
	}
	return name
}

func yamlMap(indent string, m map[string]string) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&b, "%s%s: '%s'\n", indent, k, m[k])
	}
	return b.String()
}

// matrices returns the non-empty matrices, ma before mb.
func (c expansionCase) matrices() (names []string, vars [][]string) {
	for g, name := range []string{"ma", "mb"} {
		var mv []string
		for i := range c.vectors {
			if c.group[i] == g+1 {
				mv = append(mv, fmt.Sprintf("v%d", i))
			}
		}
		if mv != nil {
			names, vars = append(names, name), append(vars, mv)
		}
	}
	return names, vars
}

func (c expansionCase) yaml() string {
	var b strings.Builder
	b.WriteString("ramble:\n  variables:\n" + yamlMap("    ", fuzzGlobals))
	b.WriteString("  applications:\n    saxpy:\n      workloads:\n        problem:\n")
	b.WriteString("          variables:\n" + yamlMap("            ", fuzzWorkload))
	b.WriteString("          experiments:\n            " + c.nameTemplate() + ":\n")
	b.WriteString("              variables:\n" + yamlMap("                ", fuzzScalars))
	for i, vals := range c.vectors {
		quoted := make([]string, len(vals))
		for j, v := range vals {
			quoted[j] = "'" + v + "'"
		}
		fmt.Fprintf(&b, "                v%d: [%s]\n", i, strings.Join(quoted, ", "))
	}
	if names, vars := c.matrices(); names != nil {
		b.WriteString("              matrices:\n")
		for m, name := range names {
			fmt.Fprintf(&b, "              - %s: [%s]\n", name, strings.Join(vars[m], ", "))
		}
	}
	if c.exclude != nil {
		b.WriteString("              exclude:\n                variables:\n")
		prefix := "                - "
		for _, k := range slices.Sorted(maps.Keys(c.exclude)) {
			fmt.Fprintf(&b, "%s%s: '%s'\n", prefix, k, c.exclude[k])
			prefix = "                  "
		}
	}
	return b.String()
}

// oracle is the enumeration the workspace used before its odometer: a
// zip index outermost, then a recursive cross product of each matrix's
// variables; each combination layers the variables app default <
// global < workload < experiment scalar < vector values.
func (c expansionCase) oracle() ([]map[string]string, error) {
	vectors := map[string][]string{}
	var zipVars []string
	for i, vals := range c.vectors {
		k := fmt.Sprintf("v%d", i)
		vectors[k] = vals
		if c.group[i] == 0 {
			zipVars = append(zipVars, k)
		}
	}
	_, matrices := c.matrices()
	zipLen := 1
	if len(zipVars) > 0 {
		zipLen = len(vectors[zipVars[0]])
		for _, k := range zipVars {
			if len(vectors[k]) != zipLen {
				return nil, fmt.Errorf("vector variables %v must have equal lengths to zip (%s has %d, %s has %d)",
					zipVars, zipVars[0], zipLen, k, len(vectors[k]))
			}
		}
	}
	var allIdx [][][]int
	var enumerate func(mi int, idx [][]int)
	enumerate = func(mi int, idx [][]int) {
		if mi == len(matrices) {
			cp := make([][]int, len(idx))
			for i := range idx {
				cp[i] = append([]int(nil), idx[i]...)
			}
			allIdx = append(allIdx, cp)
			return
		}
		var rec func(vi int, cur []int)
		rec = func(vi int, cur []int) {
			if vi == len(matrices[mi]) {
				enumerate(mi+1, append(idx, append([]int(nil), cur...)))
				return
			}
			for k := 0; k < len(vectors[matrices[mi][vi]]); k++ {
				rec(vi+1, append(cur, k))
			}
		}
		rec(0, nil)
	}
	enumerate(0, nil)

	var out []map[string]string
	for zi := 0; zi < zipLen; zi++ {
		for _, midx := range allIdx {
			vars := maps.Clone(fuzzAppDefault)
			for _, layer := range []map[string]string{fuzzGlobals, fuzzWorkload, fuzzScalars} {
				maps.Copy(vars, layer)
			}
			for _, k := range zipVars {
				vars[k] = vectors[k][zi]
			}
			for mi, m := range matrices {
				for vi, v := range m {
					vars[v] = vectors[v][midx[mi][vi]]
				}
			}
			excluded := c.exclude != nil
			for k, v := range c.exclude {
				excluded = excluded && vars[k] == v
			}
			if !excluded {
				out = append(out, vars)
			}
		}
	}
	return out, nil
}

// FuzzExpansionMatchesOracle holds Setup's expansion of a template —
// its experiments, their order, names and variables, or its error — to
// the oracle's nested loops.
func FuzzExpansionMatchesOracle(f *testing.F) {
	f.Add(uint8(3), uint8(0b10_11_01_10), uint8(0b10_01_01_00), uint8(0))
	f.Add(uint8(1), uint8(0b00_00_10_10), uint8(0), uint8(0b1_0001_011))
	f.Add(uint8(2), uint8(0b00_11_10_10), uint8(0b00_00_00_00), uint8(0))
	f.Add(uint8(2), uint8(0b00_00_00_10), uint8(0b00_10_01_10), uint8(0b0_1010_001))
	root := f.TempDir()
	f.Fuzz(func(t *testing.T, nvars, lens, groups, excl uint8) {
		c := newExpansionCase(nvars, lens, groups, excl)
		w, err := NewWorkspace("fuzz", root)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Configure(c.yaml()); err != nil {
			t.Fatalf("%v\n%s", err, c.yaml())
		}
		want, wantErr := c.oracle()
		err = w.Setup()
		if wantErr != nil {
			if err == nil || !strings.HasSuffix(err.Error(), wantErr.Error()) {
				t.Fatalf("Setup error = %v, want %v\n%s", err, wantErr, c.yaml())
			}
			return
		}
		if err != nil {
			t.Fatalf("%v\n%s", err, c.yaml())
		}
		if len(w.Experiments) != len(want) {
			t.Fatalf("%d experiments, oracle has %d\n%s", len(w.Experiments), len(want), c.yaml())
		}
		for i, e := range w.Experiments {
			name := "fz"
			for j := range c.vectors {
				name += "_" + want[i][fmt.Sprintf("v%d", j)]
			}
			if e.Name != name {
				t.Errorf("experiment %d is %s, oracle has %s\n%s", i, e.Name, name, c.yaml())
			}
			for k, v := range want[i] {
				if e.Vars[k] != v {
					t.Errorf("%s: %s = %q, oracle has %q\n%s", e.Name, k, e.Vars[k], v, c.yaml())
				}
			}
		}
	})
}

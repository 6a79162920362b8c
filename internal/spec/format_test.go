package spec

import (
	"strings"
	"testing"
)

func TestFormatTree(t *testing.T) {
	root := MustParse("app@1.0")
	depA := MustParse("liba@2.0")
	depB := MustParse("libb@3.0")
	shared := MustParse("zlib@1.2.12")
	shared.External = "/usr/lib"
	_ = depA.AddDep(shared)
	_ = depB.AddDep(shared)
	_ = root.AddDep(depA)
	_ = root.AddDep(depB)

	out := FormatTree(root)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "app@1.0") {
		t.Errorf("root line = %q", lines[0])
	}
	// Dependencies indented with ^ markers.
	if !strings.Contains(out, "    ^liba@2.0") || !strings.Contains(out, "    ^libb@3.0") {
		t.Errorf("deps:\n%s", out)
	}
	// The shared node appears once fully and once as unified.
	if strings.Count(out, "[external:/usr/lib]") != 1 {
		t.Errorf("external annotation:\n%s", out)
	}
	if strings.Count(out, "[^ unified above]") != 1 {
		t.Errorf("unified annotation:\n%s", out)
	}
}

func TestNodeCount(t *testing.T) {
	root := MustParse("app ^a ^b")
	if got := NodeCount(root); got != 3 {
		t.Errorf("count = %d", got)
	}
	if got := NodeCount(MustParse("solo")); got != 1 {
		t.Errorf("solo count = %d", got)
	}
}

func TestEncodeDecodeDAG(t *testing.T) {
	root := MustParse("app@1.0+x %gcc@12.1.1 target=broadwell")
	dep := MustParse("lib@2.0 %gcc@12.1.1 target=broadwell")
	ext := MustParse("mpi2@3.0 target=broadwell")
	ext.External = "/usr/lib/mpi2"
	if err := dep.AddDep(ext); err != nil {
		t.Fatal(err)
	}
	if err := root.AddDep(dep); err != nil {
		t.Fatal(err)
	}
	if err := ext.MarkConcrete(); err != nil {
		t.Fatal(err)
	}
	if err := dep.MarkConcrete(); err != nil {
		t.Fatal(err)
	}
	if err := root.MarkConcrete(); err != nil {
		t.Fatal(err)
	}

	nodes, roots := EncodeDAG([]*Spec{root})
	if len(nodes) != 3 || len(roots) != 1 {
		t.Fatalf("nodes=%d roots=%d", len(nodes), len(roots))
	}
	decoded, err := DecodeDAG(nodes, roots)
	if err != nil {
		t.Fatal(err)
	}
	if decoded[0].DAGHash() != root.DAGHash() {
		t.Errorf("hash mismatch: %s vs %s", decoded[0], root)
	}
	if decoded[0].FindDep("mpi2").External != "/usr/lib/mpi2" {
		t.Error("external lost")
	}

	// Tampering detected.
	for h, en := range nodes {
		en.Node = strings.Replace(en.Node, "2.0", "2.1", 1)
		nodes[h] = en
	}
	if _, err := DecodeDAG(nodes, roots); err == nil {
		t.Error("tampered table must fail verification")
	}
}

func TestDecodeDAGDangling(t *testing.T) {
	if _, err := DecodeDAG(map[string]EncodedNode{}, []string{"nope"}); err == nil {
		t.Error("dangling root should fail")
	}
}

// TestDecodeDAGRejectsCycle: a table whose edges loop is no DAG. The
// second node's claimed hash is the one its half-built parent would
// give it, so only refusing the back edge — not the hash check — stops
// it, and a hasher that remembered the half-built parent would let it
// through.
func TestDecodeDAGRejectsCycle(t *testing.T) {
	a := MustParse("a@1.0 target=broadwell")
	b := MustParse("b@1.0 target=broadwell")
	if err := a.MarkConcrete(); err != nil {
		t.Fatal(err)
	}
	ha := a.DAGHash() // a before it has any dependency
	if err := b.AddDep(a); err != nil {
		t.Fatal(err)
	}
	hb := b.DAGHash()
	nodes := map[string]EncodedNode{
		ha: {Node: "a@1.0 target=broadwell", Deps: map[string]string{"b": hb}},
		hb: {Node: "b@1.0 target=broadwell", Deps: map[string]string{"a": ha}},
	}
	for _, root := range []string{ha, hb} {
		if _, err := DecodeDAG(nodes, []string{root}); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("cyclic table from %s: err = %v, want a cycle error", root, err)
		}
	}
}

// TestHasherSharesSubtrees: one Hasher over a diamond gives every node
// the hash DAGHash gives it, in whatever order they are asked for, and
// a fresh one sees a mutation the old one cannot.
func TestHasherSharesSubtrees(t *testing.T) {
	leaf := MustParse("leaf@1.0 target=broadwell")
	l := MustParse("left@1.0 target=broadwell")
	r := MustParse("right@1.0 target=broadwell")
	top := MustParse("top@1.0 target=broadwell")
	for _, e := range [][2]*Spec{{l, leaf}, {r, leaf}, {top, l}, {top, r}} {
		if err := e[0].AddDep(e[1]); err != nil {
			t.Fatal(err)
		}
	}
	all := []*Spec{top, l, r, leaf}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}} {
		hs := Hasher{}
		for _, i := range order {
			if got, want := hs.Hash(all[i]), all[i].DAGHash(); got != want {
				t.Errorf("order %v: Hasher gives %s for %s, DAGHash %s", order, got, all[i].Name, want)
			}
		}
		if len(hs) != len(all) {
			t.Errorf("order %v: hasher remembers %d nodes, want %d", order, len(hs), len(all))
		}
	}
	before := top.DAGHash()
	leaf.SetVariant("shared", VariantValue{IsBool: true, Bool: true})
	if after := (Hasher{}).Hash(top); after == before || after != top.DAGHash() {
		t.Errorf("after mutating the leaf: fresh Hasher %s, DAGHash %s, before %s", after, top.DAGHash(), before)
	}
}

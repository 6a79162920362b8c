package spec

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// concreteNode parses and marks one concrete node.
func concreteNode(t testing.TB, text string) *Spec {
	t.Helper()
	s := MustParse(text)
	if err := s.MarkConcrete(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDecodeRefusesMisnamedEdge: a table whose edge "zlib" leads to
// node b hashes consistently — the edge name is part of the hash — but
// decoding it would give a spec whose Deps["zlib"] is b, which
// FindDep("zlib") never finds. Decode refuses it.
func TestDecodeRefusesMisnamedEdge(t *testing.T) {
	a := concreteNode(t, "a@1.0 target=broadwell")
	a.Deps["zlib"] = concreteNode(t, "b@1.0 target=broadwell")
	dag := EncodeDAG([]*Spec{a}, Hasher{})
	if got := dag.Nodes[dag.Roots[0]].Deps["zlib"]; got == "" {
		t.Fatalf("table %+v has no zlib edge", dag.Nodes)
	}
	_, err := dag.Decode(Hasher{})
	if err == nil || !strings.Contains(err.Error(), `names its edge to b "zlib"`) {
		t.Errorf("misnamed edge: err = %v, want it refused", err)
	}
}

// TestDecodeRefusesNonCanonicalNode: a node's text must be the
// rendering EncodeDAG writes. Spelled another way it parses to the
// same spec and rebuilds to the same hash, but it is not the stored
// form, and re-encoding would not give the bytes that were read.
func TestDecodeRefusesNonCanonicalNode(t *testing.T) {
	dag := EncodeDAG([]*Spec{concreteNode(t, "zlib@1.2.12%gcc@12.1.1 target=broadwell")}, Hasher{})
	h := dag.Roots[0]
	canonical := dag.Nodes[h].Node
	if _, err := dag.Decode(Hasher{}); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"zlib@1.2.12 %gcc@12.1.1 target=broadwell",
		"zlib @1.2.12%gcc@12.1.1 target=broadwell",
		"zlib@1.2.12%gcc@12.1.1  target=broadwell",
	} {
		if got := MustParse(text).nodeText(); got != canonical {
			t.Fatalf("%q parses to %q, not the stored node", text, got)
		}
		dag.Nodes[h] = EncodedNode{Node: text}
		if _, err := dag.Decode(Hasher{}); err == nil || !strings.Contains(err.Error(), "canonical") {
			t.Errorf("node %q: err = %v, want it refused as non-canonical", text, err)
		}
	}
}

// FuzzDecodeDAG: bytes read back as a stored DAG — a spack.lock, a
// concretize-layer entry or the node table of an install database
// (testdata/dag) — either fail to decode, or decode to specs whose
// every edge is named after its target and whose re-encoding is
// exactly the part of the table the roots reach.
func FuzzDecodeDAG(f *testing.F) {
	seeds, err := filepath.Glob("testdata/dag/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seeds under testdata/dag: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"nodes":{},"roots":[]}`))
	f.Add([]byte(`{"nodes":{"x":{"node":"a@1.0","deps":{"a":"x"}}},"roots":["x"]}`))
	// Tables whose every hash checks out but that Decode must still
	// refuse: a misnamed edge, and a node spelled non-canonically.
	a := concreteNode(f, "a@1.0 target=broadwell")
	a.Deps["zlib"] = concreteNode(f, "b@1.0 target=broadwell")
	misnamed := EncodeDAG([]*Spec{a}, Hasher{})
	spaced := EncodeDAG([]*Spec{concreteNode(f, "zlib@1.2.12 target=broadwell")}, Hasher{})
	spaced.Nodes[spaced.Roots[0]] = EncodedNode{Node: "zlib@1.2.12  target=broadwell"}
	for _, dag := range []DAG{misnamed, spaced} {
		data, err := json.Marshal(dag)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var in DAG
		if json.Unmarshal(data, &in) != nil {
			return
		}
		hs := Hasher{}
		specs, err := in.Decode(hs)
		if err != nil {
			return
		}
		for _, s := range specs {
			s.Traverse(func(n *Spec) {
				for name, dep := range n.Deps {
					if dep.Name != name {
						t.Errorf("%s's edge %q leads to %s", n.Name, name, dep.Name)
					}
				}
				// The table Decode leaves behind answers every node, with
				// the hash a fresh one computes.
				if h, ok := hs[n]; !ok || h != n.DAGHash() {
					t.Errorf("%s: the decoded table holds %q, %v; DAGHash is %s", n.Name, h, ok, n.DAGHash())
				}
			})
		}
		reached := map[string]bool{}
		var walk func(h string)
		walk = func(h string) {
			if !reached[h] {
				reached[h] = true
				for _, dh := range in.Nodes[h].Deps {
					walk(dh)
				}
			}
		}
		for _, h := range in.Roots {
			walk(h)
		}
		out := EncodeDAG(specs, Hasher{})
		if !slices.Equal(out.Roots, in.Roots) {
			t.Errorf("roots re-encode to %v, read %v", out.Roots, in.Roots)
		}
		if len(out.Nodes) != len(reached) {
			t.Errorf("%d nodes re-encoded, %d reached", len(out.Nodes), len(reached))
		}
		for h, got := range out.Nodes {
			want, ok := in.Nodes[h]
			if !ok || !reached[h] || got.Node != want.Node || got.External != want.External || !maps.Equal(got.Deps, want.Deps) {
				t.Errorf("node %s re-encodes to %+v, read %+v (reached %v)", h, got, want, reached[h])
			}
		}
	})
}

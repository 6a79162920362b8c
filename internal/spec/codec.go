package spec

import "fmt"

// DAG is the one stored form of concrete spec DAGs, shared by
// spack.lock, the concretize cache layer and the install database:
// the root hashes, in order, and every node reachable from them, once,
// keyed by its DAG hash.
type DAG struct {
	Nodes map[string]EncodedNode `json:"nodes"`
	Roots []string               `json:"roots"`
}

// EncodedNode is one node of a DAG: its own canonical rendering (no
// dependency clauses, no external annotation), its external prefix,
// and its dependency edges, each named after its target's package, by
// hash.
type EncodedNode struct {
	Node     string            `json:"node"`
	External string            `json:"external,omitempty"`
	Deps     map[string]string `json:"deps,omitempty"` // name -> hash
}

// EncodeDAG flattens the DAGs rooted at the given concrete specs,
// hashing each node with hs, which keeps every hash for the caller.
func EncodeDAG(roots []*Spec, hs Hasher) DAG {
	d := DAG{Nodes: map[string]EncodedNode{}}
	for _, root := range roots {
		d.Roots = append(d.Roots, hs.Hash(root))
		root.Traverse(func(n *Spec) {
			h := hs.Hash(n)
			if _, ok := d.Nodes[h]; ok {
				return
			}
			en := EncodedNode{Node: n.nodeText(), External: n.External}
			if len(n.Deps) > 0 {
				en.Deps = make(map[string]string, len(n.Deps))
				for dn, dep := range n.Deps {
					en.Deps[dn] = hs.Hash(dep)
				}
			}
			d.Nodes[h] = en
		})
	}
	return d
}

// Decode rebuilds the DAG's roots, in order; shared nodes are shared in
// the result. It accepts only what EncodeDAG writes: a node whose text
// is not its canonical rendering, an edge not named after its target's
// package, a dangling or cyclic edge, or a node that does not rebuild
// to its hash is an error, so corrupt or tampered bytes never decode.
// Checking a node's hash computes it, and hs keeps it: after a Decode
// that succeeds, hs holds the hash of every node of the roots, so the
// caller that keeps hs never hashes them again.
func (d DAG) Decode(hs Hasher) ([]*Spec, error) {
	built := map[string]*Spec{} // nil while a node's dependencies are being built
	var build func(hash string) (*Spec, error)
	build = func(hash string) (*Spec, error) {
		if n, ok := built[hash]; ok {
			if n == nil {
				return nil, fmt.Errorf("spec: encoded DAG has a cycle through %s", hash)
			}
			return n, nil
		}
		en, ok := d.Nodes[hash]
		if !ok {
			return nil, fmt.Errorf("spec: encoded DAG references unknown hash %s", hash)
		}
		s, err := Parse(en.Node)
		if err != nil {
			return nil, fmt.Errorf("spec: encoded node %s: %w", hash, err)
		}
		if len(s.Deps) > 0 {
			return nil, fmt.Errorf("spec: encoded node %s carries inline deps", hash)
		}
		if text := s.nodeText(); text != en.Node {
			return nil, fmt.Errorf("spec: encoded node %s is %q, not its canonical %q", hash, en.Node, text)
		}
		s.External = en.External
		built[hash] = nil
		for name, dh := range en.Deps {
			dep, err := build(dh)
			if err != nil {
				return nil, err
			}
			if dep.Name != name {
				return nil, fmt.Errorf("spec: encoded node %s names its edge to %s %q", hash, dep.Name, name)
			}
			s.Deps[name] = dep
		}
		if err := s.MarkConcrete(); err != nil {
			return nil, fmt.Errorf("spec: encoded node %s: %w", hash, err)
		}
		// Every dependency is complete and verified by now, so the
		// hasher only ever remembers final hashes.
		if got := hs.Hash(s); got != hash {
			return nil, fmt.Errorf("spec: DAG integrity failure: node %s rebuilds to %s", hash, got)
		}
		built[hash] = s
		return s, nil
	}
	out := make([]*Spec, 0, len(d.Roots))
	for _, rh := range d.Roots {
		r, err := build(rh)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

package spec

import (
	"fmt"
	"strings"
)

// EncodedNode is the serialized form of one concrete DAG node: its
// own rendering (no dependency clauses), its external prefix, and its
// dependency edges by hash. The format is shared by environment
// lockfiles and the persistent install database.
type EncodedNode struct {
	Node     string            `json:"node"`
	External string            `json:"external,omitempty"`
	Deps     map[string]string `json:"deps,omitempty"` // name -> hash
}

// EncodeDAG flattens the DAGs rooted at the given concrete specs into
// a hash-keyed node table plus the root hashes.
func EncodeDAG(roots []*Spec) (map[string]EncodedNode, []string) {
	nodes := map[string]EncodedNode{}
	var rootHashes []string
	hs := Hasher{}
	for _, root := range roots {
		rootHashes = append(rootHashes, hs.Hash(root))
		root.Traverse(func(n *Spec) {
			h := hs.Hash(n)
			if _, ok := nodes[h]; ok {
				return
			}
			en := EncodedNode{Node: n.renderNodeNoExternal(), External: n.External}
			if len(n.Deps) > 0 {
				en.Deps = map[string]string{}
				for dn, d := range n.Deps {
					en.Deps[dn] = hs.Hash(d)
				}
			}
			nodes[h] = en
		})
	}
	return nodes, rootHashes
}

// renderNodeNoExternal renders the node without the external
// annotation (which EncodedNode carries separately).
func (s *Spec) renderNodeNoExternal() string {
	text := s.renderNode()
	if i := strings.Index(text, " [external:"); i >= 0 {
		text = text[:i]
	}
	return text
}

// DecodeDAG rebuilds concrete spec DAGs from an encoded node table,
// re-deriving and verifying every hash (a tampered table is
// rejected). Shared nodes are shared in the result.
func DecodeDAG(nodes map[string]EncodedNode, roots []string) ([]*Spec, error) {
	built := map[string]*Spec{} // nil while a node's dependencies are being built
	hs := Hasher{}
	var build func(hash string) (*Spec, error)
	build = func(hash string) (*Spec, error) {
		if n, ok := built[hash]; ok {
			if n == nil {
				return nil, fmt.Errorf("spec: encoded DAG has a cycle through %s", hash)
			}
			return n, nil
		}
		en, ok := nodes[hash]
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
		s.External = en.External
		built[hash] = nil
		for name, dh := range en.Deps {
			dn, err := build(dh)
			if err != nil {
				return nil, err
			}
			s.Deps[name] = dn
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
	out := make([]*Spec, 0, len(roots))
	for _, rh := range roots {
		r, err := build(rh)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

package analysis

import (
	"maps"
	"slices"
	"sort"
	"strings"
)

// LockOrder builds the whole-module lock-acquisition graph from the
// Locks facts (facts.go): every "acquired B while holding A" pair any
// function exhibits — including pairs completed through callees in
// other packages — is an A→B edge, and a cycle in the graph means two
// call paths can take the same lock classes in opposite orders: a
// potential deadlock no single-package analyzer can see.
//
// Each package reports only cycles that one of its own edges takes
// part in, so a cycle is diagnosed exactly once, in the package that
// closes it (its dependencies were analyzed first and could not see
// the closing edge).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	// Collect every edge visible here: this package's facts plus all
	// imported fact sets. Own edges remember they are ours so cycles
	// are reported exactly once, module-wide.
	type edge struct {
		LockEdge
		own bool
	}
	var edges []edge
	for _, path := range slices.Sorted(maps.Keys(pass.AllFacts)) {
		pf := pass.AllFacts[path]
		if pf == nil {
			continue
		}
		own := pf == pass.Facts
		for _, key := range slices.Sorted(maps.Keys(pf.Funcs)) {
			for _, e := range pf.Funcs[key].Edges {
				edges = append(edges, edge{LockEdge: e, own: own})
			}
		}
	}

	adj := map[string][]string{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}

	// An edge A→B is part of a cycle iff A is reachable from B. Report
	// each distinct cycle (identified by its sorted lock-class set)
	// once, at the first own edge that participates.
	reported := map[string]bool{}
	for _, e := range edges {
		if !e.own {
			continue
		}
		cycle := cycleThrough(adj, e.From, e.To)
		if cycle == nil {
			continue
		}
		id := canonicalCycle(cycle)
		if reported[id] {
			continue
		}
		reported[id] = true
		pass.ReportAt(e.File, e.Line, 1,
			"lock order cycle %s: %s is acquired here while %s is held, but another path acquires them in the opposite order (potential deadlock)",
			strings.Join(cycle, " -> "), shortClass(e.To), shortClass(e.From))
	}
}

// cycleThrough reconstructs one concrete cycle that uses the edge
// from→to: the shortest path to→…→from (BFS, neighbors in sorted
// order for determinism) closed by the edge itself; nil when from is
// not reachable from to, i.e. the edge is on no cycle.
func cycleThrough(adj map[string][]string, from, to string) []string {
	prev := map[string]string{to: to}
	queue := []string{to}
	for len(queue) > 0 && prev[from] == "" {
		n := queue[0]
		queue = queue[1:]
		next := append([]string(nil), adj[n]...)
		sort.Strings(next)
		for _, m := range next {
			if _, ok := prev[m]; !ok {
				prev[m] = n
				queue = append(queue, m)
			}
		}
	}
	if prev[from] == "" {
		return nil
	}
	var path []string
	for n := from; ; n = prev[n] {
		path = append(path, shortClass(n))
		if n == to {
			break
		}
	}
	// path is from…to backwards; the cycle reads from → to → … → from.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return append([]string{shortClass(from)}, path...)
}

// canonicalCycle identifies a cycle independent of its starting
// point: the sorted set of its nodes.
func canonicalCycle(cycle []string) string {
	set := map[string]bool{}
	for _, n := range cycle {
		set[n] = true
	}
	return strings.Join(slices.Sorted(maps.Keys(set)), ",")
}

// shortClass trims the lock class's package path to its last element
// for readable diagnostics (repro/internal/buildcache.Cache.mu →
// buildcache.Cache.mu).
func shortClass(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}

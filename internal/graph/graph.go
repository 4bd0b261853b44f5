// Package graph provides the small set of directed-graph algorithms the
// model checker and the correspondence engine are built on: depth-first
// reachability, Tarjan's strongly connected components, and the condensation
// (component DAG).  Graphs are represented in compressed-sparse-row form
// over dense integer vertices so callers can map Kripke or tableau states
// directly onto them; SCCComp also runs over any caller's adjacency rows
// through an accessor and an edge filter, which is how the correspondence
// engine finds its silent components without building a subgraph.
package graph

import (
	"fmt"
	"math/bits"
)

// Graph is a directed graph over the vertices 0..N-1.
//
// Edges added with AddEdge are collected in one flat list and compiled into
// compressed-sparse-row form on first read, so building a graph costs O(1)
// amortised per edge with no per-vertex slice growth — the model checker
// builds a restricted graph per EG subformula and a product graph per
// tableau run, which made per-edge appends the dominant allocation source.
// The CSR preserves insertion order within each vertex's successor list, so
// algorithm outputs (component numbering, traversal order) are exactly those
// of the old adjacency-list representation.
type Graph struct {
	n     int
	eFrom []int32 // pending edge list
	eTo   []int32
	off   []int32 // CSR, built by ensure()
	dst   []int
	dirty bool
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{n: n}
}

// FromCSR wraps a prebuilt compressed-sparse-row adjacency without copying:
// off has n+1 entries and dst[off[u]:off[u+1]] lists the successors of u.
// The caller must not modify either slice afterwards.  Engines that can
// count their edges up front (the packed tableau product) assemble the CSR
// with two word-batched passes and skip the pending edge list entirely.
func FromCSR(off []int32, dst []int) *Graph {
	return &Graph{n: len(off) - 1, off: off, dst: dst}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge adds the directed edge u -> v.  It panics if either endpoint is
// out of range, which always indicates a programming error in the caller.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0, %d)", u, v, g.n))
	}
	if g.off != nil && len(g.eFrom) == 0 && len(g.dst) > 0 {
		// The CSR was built directly, without a pending list (Transpose
		// does this).  Materialise the pending edges before mutating, so
		// the rebuild triggered by this AddEdge keeps them.
		for w := 0; w < g.n; w++ {
			for _, x := range g.dst[g.off[w]:g.off[w+1]] {
				g.eFrom = append(g.eFrom, int32(w))
				g.eTo = append(g.eTo, int32(x))
			}
		}
	}
	g.eFrom = append(g.eFrom, int32(u))
	g.eTo = append(g.eTo, int32(v))
	g.dirty = true
}

// buildCSR compiles an edge list into CSR form with a stable counting fill,
// so each vertex's successors keep the edge list's order.
func buildCSR(n int, from, to []int32) (off []int32, dst []int) {
	off = make([]int32, n+1)
	for _, u := range from {
		off[u+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	dst = make([]int, len(from))
	next := make([]int32, n)
	copy(next, off[:n])
	for i, u := range from {
		dst[next[u]] = int(to[i])
		next[u]++
	}
	return off, dst
}

// ensure compiles the pending edge list into CSR form.
func (g *Graph) ensure() {
	if !g.dirty && g.off != nil {
		return
	}
	g.off, g.dst = buildCSR(g.n, g.eFrom, g.eTo)
	g.dirty = false
}

// Succ returns the successors of u in insertion order.  The returned slice
// must not be modified.
func (g *Graph) Succ(u int) []int {
	g.ensure()
	return g.dst[g.off[u]:g.off[u+1]]
}

// Reachable returns the set of vertices reachable from the given sources
// (including the sources themselves) as a boolean slice indexed by vertex.
func (g *Graph) Reachable(sources ...int) []bool {
	seen := make([]bool, g.n)
	stack := make([]int, 0, len(sources))
	for _, s := range sources {
		if s >= 0 && s < len(seen) && !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succ(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// BackwardReachable returns the set of vertices from which some vertex in
// targets is reachable.  It runs a reverse BFS, so it needs the transposed
// adjacency which it builds on the fly.
func (g *Graph) BackwardReachable(targets ...int) []bool {
	rev := g.Transpose()
	return rev.Reachable(targets...)
}

// Transpose returns the graph with all edges reversed.
func (g *Graph) Transpose() *Graph {
	t := New(g.n)
	// Build the transposed CSR directly with one counting pass — no
	// per-vertex growth, no pending list (AddEdge reconstructs one if the
	// transposed graph is ever mutated).
	if len(g.eFrom) > 0 {
		t.off, t.dst = buildCSR(g.n, g.eTo, g.eFrom)
		return t
	}
	// CSR-only graph (FromCSR, or a previous Transpose): count over the CSR
	// itself, preserving source order within each transposed successor list.
	g.ensure()
	off := make([]int32, g.n+1)
	for _, v := range g.dst {
		off[v+1]++
	}
	for u := 0; u < g.n; u++ {
		off[u+1] += off[u]
	}
	dst := make([]int, len(g.dst))
	next := make([]int32, g.n)
	copy(next, off[:g.n])
	for u := 0; u < g.n; u++ {
		for _, v := range g.dst[g.off[u]:g.off[u+1]] {
			dst[next[v]] = u
			next[v]++
		}
	}
	t.off, t.dst = off, dst
	return t
}

// SCCResult is the output of Tarjan's algorithm.
type SCCResult struct {
	// Comp maps each vertex to its component number.  Components are
	// numbered in reverse topological order: if there is an edge from
	// component a to component b (a != b) then Comp index of a is greater
	// than that of b.
	Comp []int
	// Components lists the vertices of each component.
	Components [][]int
}

// NumComponents returns the number of strongly connected components.
func (r *SCCResult) NumComponents() int { return len(r.Components) }

// IsTrivial reports whether component c consists of a single vertex without
// a self loop in the original graph g.  Trivial components cannot carry an
// infinite path by themselves.
func (r *SCCResult) IsTrivial(g *Graph, c int) bool {
	if len(r.Components[c]) != 1 {
		return false
	}
	v := r.Components[c][0]
	for _, w := range g.Succ(v) {
		if w == v {
			return false
		}
	}
	return true
}

// SCC computes the strongly connected components of g using an iterative
// version of Tarjan's algorithm (iterative so that structures with hundreds
// of thousands of states do not overflow the goroutine stack).
func (g *Graph) SCC() *SCCResult {
	g.ensure()
	res := &SCCResult{Comp: make([]int, g.n)}
	var component []int
	tarjan(g.n, g.Succ, nil, make([]int32, g.n), make([]int32, g.n), func(w, c int, last bool) {
		res.Comp[w] = c
		component = append(component, w)
		if last {
			res.Components = append(res.Components, component)
			component = nil
		}
	})
	return res
}

// SCCComp computes only the component assignment of Tarjan's algorithm
// over the vertices 0..len(comp)-1, whose successors are the members v of
// succ(u) that keep(u, v) accepts (every member when keep is nil).  It
// writes each vertex's component number into comp, numbering from first in
// reverse topological order like SCC, and returns the number of components.
// A caller can thus find the components of a subgraph of adjacency rows it
// already holds without copying them, and skip the per-component vertex
// lists SCC allocates: the partition-refinement engine runs it over each
// structure's label-preserving edges, numbering the second structure's
// components on from the first's.
//
// comp doubles as the search's index array (a vertex's index sits there,
// encoded as a negative, until its component is popped), and stack is the
// caller's scratch for Tarjan's vertex stack, at least len(comp) entries
// whose contents on return are arbitrary.  Only the DFS call stack is
// allocated, and it grows with the search depth.
func SCCComp[V ~int | ~int32](comp, stack []int32, first int, succ func(u int) []V, keep func(u, v int) bool) int {
	numComponents := 0
	tarjan(len(comp), succ, keep, comp, stack, func(w, c int, last bool) {
		comp[w] = int32(first + c)
		if last {
			numComponents++
		}
	})
	return numComponents
}

// tarjan runs the iterative Tarjan algorithm over the vertices 0..n-1,
// whose successors are the members w of succ(v) that keep(v, w) accepts
// (every member when keep is nil).  As each component c is completed it
// calls pop(w, c, last) for its members in stack order, last marking the
// component's root, the final member.  Components are completed in reverse
// topological order.
//
// index and stack are scratch of n entries each.  index[v] is -1 while v is
// unvisited, -2-i while v is on the stack with DFS index i, and
// non-negative once v's component is complete; pop may overwrite a popped
// vertex's entry with any non-negative value.
func tarjan[V ~int | ~int32](n int, succ func(v int) []V, keep func(v, w int) bool, index, stack []int32, pop func(w, c int, last bool)) {
	// A vertex is finished once its component is complete, so it never
	// lowers a low link; a low link lives in its vertex's call frame.
	const unvisited = -1
	index = index[:n]
	for i := range index {
		index[i] = unvisited
	}
	stack = stack[:0]
	var next int32
	components := 0

	// The DFS call stack starts at ⌈n/2^k⌉ frames, 64 to 128 of them (all
	// n below 128), and doubles up to n, the deepest a search can go: a
	// search as deep as the graph allocates under 2n + n/64 frames in all,
	// where growing it by append, about 1.25 times a step, allocated about
	// 5n.
	type frame struct {
		v, child, low int32
	}
	k := max(0, bits.Len(uint(n))-7)
	callStack := make([]frame, 0, (n+1<<k-1)>>k)
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{v: int32(root)})
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			v := fr.v
			if fr.child == 0 {
				index[v], fr.low = -2-next, next
				next++
				stack = append(stack, v)
			}
			advanced := false
			row := succ(int(v))
			for int(fr.child) < len(row) {
				w := row[fr.child]
				fr.child++
				if keep != nil && !keep(int(v), int(w)) {
					continue
				}
				iw := index[w]
				if iw == unvisited {
					if len(callStack) == cap(callStack) {
						grown := make([]frame, len(callStack), min(2*cap(callStack), n))
						callStack = grown[:copy(grown, callStack)]
					}
					callStack = append(callStack, frame{v: int32(w)})
					advanced = true
					break
				}
				if iw < unvisited {
					fr.low = min(fr.low, -2-iw)
				}
			}
			if advanced {
				continue
			}
			// All children explored.
			low := fr.low
			if low == -2-index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					index[w] = 0
					pop(int(w), components, w == v)
					if w == v {
						break
					}
				}
				components++
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := &callStack[len(callStack)-1]
				parent.low = min(parent.low, low)
			}
		}
	}
}

// Condensation returns the component DAG of g: one vertex per strongly
// connected component, with an edge between two components whenever g has an
// edge between their members.  Self loops and duplicate edges are removed.
func (g *Graph) Condensation(scc *SCCResult) *Graph {
	if scc == nil {
		scc = g.SCC()
	}
	dag := New(scc.NumComponents())
	seen := map[int64]bool{}
	for u := 0; u < g.n; u++ {
		cu := scc.Comp[u]
		for _, v := range g.Succ(u) {
			cv := scc.Comp[v]
			if cu == cv {
				continue
			}
			key := int64(cu)<<32 | int64(uint32(cv))
			if seen[key] {
				continue
			}
			seen[key] = true
			dag.AddEdge(cu, cv)
		}
	}
	return dag
}

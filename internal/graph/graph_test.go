package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

func TestReachable(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	seen := g.Reachable(0)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("Reachable(0)[%d] = %v, want %v", i, seen[i], want[i])
		}
	}
	seen = g.Reachable(0, 3)
	if !seen[4] {
		t.Error("multi-source reachability should include 4")
	}
	seen = g.Reachable()
	for i, ok := range seen {
		if ok {
			t.Errorf("Reachable() should be empty, got vertex %d", i)
		}
	}
}

func TestBackwardReachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 3)
	back := g.BackwardReachable(2)
	want := []bool{true, true, true, false}
	for i := range want {
		if back[i] != want[i] {
			t.Errorf("BackwardReachable(2)[%d] = %v, want %v", i, back[i], want[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	tr := g.Transpose()
	if len(tr.Succ(1)) != 1 || tr.Succ(1)[0] != 0 {
		t.Errorf("Transpose Succ(1) = %v", tr.Succ(1))
	}
	if len(tr.Succ(0)) != 0 {
		t.Errorf("Transpose Succ(0) = %v", tr.Succ(0))
	}
}

func TestSCCSimpleCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	scc := g.SCC()
	if scc.NumComponents() != 2 {
		t.Fatalf("NumComponents = %d, want 2", scc.NumComponents())
	}
	if scc.Comp[0] != scc.Comp[1] || scc.Comp[1] != scc.Comp[2] {
		t.Error("vertices 0,1,2 should share a component")
	}
	if scc.Comp[3] == scc.Comp[0] {
		t.Error("vertex 3 should be in its own component")
	}
	// Reverse topological numbering: the sink component {3} must have a
	// smaller number than the cycle that reaches it.
	if scc.Comp[3] > scc.Comp[0] {
		t.Error("components should be numbered in reverse topological order")
	}
	cyc := scc.Comp[0]
	if scc.IsTrivial(g, cyc) {
		t.Error("the 3-cycle should not be trivial")
	}
	if !scc.IsTrivial(g, scc.Comp[3]) {
		t.Error("vertex 3 without self loop should be trivial")
	}
}

func TestSCCSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	scc := g.SCC()
	if scc.IsTrivial(g, scc.Comp[0]) {
		t.Error("a vertex with a self loop is not trivial")
	}
	if !scc.IsTrivial(g, scc.Comp[1]) {
		t.Error("vertex 1 is trivial")
	}
}

func TestSCCAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 50; iter++ {
		n := 2 + r.Intn(8)
		g := New(n)
		edges := r.Intn(n * n)
		for e := 0; e < edges; e++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		scc := g.SCC()
		// Brute force: u and v share a component iff each reaches the other.
		for u := 0; u < n; u++ {
			ru := g.Reachable(u)
			for v := 0; v < n; v++ {
				rv := g.Reachable(v)
				same := ru[v] && rv[u]
				if same != (scc.Comp[u] == scc.Comp[v]) {
					t.Fatalf("iter %d: SCC disagrees with brute force at (%d,%d)", iter, u, v)
				}
			}
		}
		// The component lists must partition the vertices.
		total := 0
		for _, comp := range scc.Components {
			total += len(comp)
		}
		if total != n {
			t.Fatalf("iter %d: components cover %d of %d vertices", iter, total, n)
		}
	}
}

func TestSCCLargeChain(t *testing.T) {
	// A long chain exercises the iterative (non-recursive) implementation.
	n := 200000
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	scc := g.SCC()
	if scc.NumComponents() != n {
		t.Fatalf("chain of %d vertices should have %d components, got %d", n, n, scc.NumComponents())
	}
}

func TestCondensation(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	g.AddEdge(3, 4)
	scc := g.SCC()
	dag := g.Condensation(scc)
	if dag.N() != 3 {
		t.Fatalf("condensation has %d vertices, want 3", dag.N())
	}
	// The DAG must be acyclic: every component's successors have strictly
	// smaller component numbers (reverse topological order).
	for u := 0; u < dag.N(); u++ {
		for _, v := range dag.Succ(u) {
			if v >= u {
				t.Errorf("condensation edge %d -> %d violates reverse topological numbering", u, v)
			}
		}
	}
	// Condensation without a precomputed SCC should agree.
	dag2 := g.Condensation(nil)
	if dag2.N() != dag.N() {
		t.Error("Condensation(nil) disagrees")
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddEdge out of range should panic")
		}
	}()
	g := New(1)
	g.AddEdge(0, 5)
}

// TestFromCSR: a graph wrapped around a prebuilt CSR reads its rows in
// place and runs every algorithm on them.
func TestFromCSR(t *testing.T) {
	// 0 -> 1, 1 -> {0, 2}, 2 has no successors.
	g := FromCSR([]int32{0, 1, 3, 3}, []int{1, 0, 2})
	if g.N() != 3 {
		t.Errorf("N = %d", g.N())
	}
	if got := fmt.Sprint(g.Succ(1)); got != "[0 2]" {
		t.Errorf("Succ(1) = %s, want [0 2]", got)
	}
	scc := g.SCC()
	if scc.NumComponents() != 2 || scc.Comp[0] != scc.Comp[1] || scc.Comp[2] == scc.Comp[0] {
		t.Errorf("SCC Comp = %v, want {0,1} and {2}", scc.Comp)
	}
	if back := g.BackwardReachable(2); !back[0] || !back[1] {
		t.Errorf("BackwardReachable(2) = %v, want every vertex", back)
	}
}

// TestSCCCompMatchesSCC: on random graphs SCCComp, reading int32 rows
// through an accessor, assigns exactly the components SCC does, with the
// same numbering shifted by first.  With a random edge filter it must
// equal SCC on an explicitly filtered copy of the graph.
func TestSCCCompMatchesSCC(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		n := 1 + r.Intn(12)
		g := New(n)
		for e := r.Intn(2 * n * n); e > 0; e-- {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		rows := make([][]int32, n)
		for u := 0; u < n; u++ {
			for _, v := range g.Succ(u) {
				rows[u] = append(rows[u], int32(v))
			}
		}
		var keep func(u, v int) bool
		want := g
		if iter%2 == 1 {
			// Keep an edge by a random verdict on its endpoints, fixed
			// for the whole run.
			dropped := make([]bool, n*n)
			for i := range dropped {
				dropped[i] = r.Intn(3) == 0
			}
			keep = func(u, v int) bool { return !dropped[u*n+v] }
			want = New(n)
			for u := 0; u < n; u++ {
				for _, v := range g.Succ(u) {
					if keep(u, v) {
						want.AddEdge(u, v)
					}
				}
			}
		}
		scc := want.SCC()
		first := r.Intn(5)
		// The outputs start as junk: comp is fully written and stack is
		// scratch.
		comp, stack := make([]int32, n), make([]int32, n)
		for v := range comp {
			comp[v], stack[v] = int32(r.Intn(7)-3), int32(r.Intn(7)-3)
		}
		k := SCCComp(comp, stack, first, func(u int) []int32 { return rows[u] }, keep)
		if k != scc.NumComponents() {
			t.Fatalf("iter %d: SCCComp found %d components, SCC %d", iter, k, scc.NumComponents())
		}
		for v := range comp {
			if int(comp[v]) != first+scc.Comp[v] {
				t.Fatalf("iter %d: vertex %d in component %d, SCC says %d + first %d", iter, v, comp[v], scc.Comp[v], first)
			}
		}
	}
}

// TestTransposeThenAddEdge: a graph produced by Transpose has its CSR built
// directly; mutating it afterwards must keep every transposed edge.
func TestTransposeThenAddEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	rev := g.Transpose()
	if got := fmt.Sprint(rev.Succ(1)); got != "[0]" {
		t.Fatalf("transposed Succ(1) = %s, want [0]", got)
	}
	rev.AddEdge(0, 2)
	if got := fmt.Sprint(rev.Succ(1)); got != "[0]" {
		t.Errorf("after AddEdge, transposed Succ(1) = %s, want [0] (transposed edges lost)", got)
	}
	if got := fmt.Sprint(rev.Succ(2)); got != "[1]" {
		t.Errorf("after AddEdge, transposed Succ(2) = %s, want [1] (transposed edges lost)", got)
	}
	if got := fmt.Sprint(rev.Succ(0)); got != "[2]" {
		t.Errorf("after AddEdge, Succ(0) = %s, want [2]", got)
	}
}

// TestSCCCompAllocs: given the caller's scratch for Tarjan's stack, and
// keeping each vertex's DFS index in comp itself, SCCComp allocates only
// its DFS call stack, which grows with the search depth.  On a sparse
// 10,000-vertex random graph with an edge filter, the shape of the silent
// subgraphs the refiner runs it over, that is at most 8 allocations and 2
// bytes per vertex (1 and 1,024 bytes in all measured, the stack's first
// 79 frames).  It allocated 8 bytes per vertex more when the index array
// and the Tarjan stack were its own.
func TestSCCCompAllocs(t *testing.T) {
	const n = 10_000
	r := rand.New(rand.NewSource(11))
	rows := make([][]int32, n)
	for u := range rows {
		for d := r.Intn(3); d > 0; d-- {
			rows[u] = append(rows[u], int32(r.Intn(n)))
		}
	}
	succ := func(u int) []int32 { return rows[u] }
	keep := func(u, v int) bool { return (u^v)%3 != 0 }
	comp, stack := make([]int32, n), make([]int32, n)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { SCCComp(comp, stack, 0, succ, keep) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured runs.
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("SCCComp on %d vertices: %.0f allocations, %.0f bytes per run", n, allocs, perRun)
	if allocs > 8 {
		t.Errorf("SCCComp on %d vertices allocated %.0f times, want at most 8", n, allocs)
	}
	if perRun > 2*n {
		t.Errorf("SCCComp on %d vertices allocated %.0f bytes per run, want at most %d", n, perRun, 2*n)
	}
}

// TestSCCCompDeepPathAllocs: on a 100,000-vertex path, whose depth-first
// search is as deep as the graph, SCCComp's call stack of 12-byte frames
// grows by doubling and never past the vertex count, so it allocates under
// twice the deepest stack's 1.2 MB.  Growing it by append allocated about
// 6 MB.
func TestSCCCompDeepPathAllocs(t *testing.T) {
	const n = 100_000
	next := make([]int32, n-1) // the row of vertex u < n-1 is next[u:u+1]
	for u := range next {
		next[u] = int32(u + 1)
	}
	succ := func(u int) []int32 {
		if u == n-1 {
			return nil
		}
		return next[u : u+1]
	}
	comp, stack := make([]int32, n), make([]int32, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k := SCCComp(comp, stack, 0, succ, nil)
	runtime.ReadMemStats(&after)
	if k != n {
		t.Fatalf("SCCComp found %d components on an %d-vertex path, want %d", k, n, n)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*12*n+64<<10)
	t.Logf("SCCComp on a %d-vertex path: %d bytes (bound %d)", n, got, limit)
	if got > limit {
		t.Errorf("SCCComp on a %d-vertex path allocated %d bytes, above the %d-byte bound", n, got, limit)
	}
}

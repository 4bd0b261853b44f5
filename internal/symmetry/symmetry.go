// Package symmetry implements the automorphism-group machinery of the
// repository's families: per-topology permutation groups acting on packed
// uint64 state codes, orbit-canonical representatives, and QuotientDef,
// which lifts an explore.Def to one state per orbit so internal/explore
// counts orbits.
//
// A Group is a permutation group on the bit-fields of a packed code — for
// the families in this repository the fields are the per-process local
// states, so a group element is a process permutation and the action
// permutes the fields.  Every group in this package is (a subgroup of) the
// automorphism group of its topology's communication graph, and the
// protocols' transition rules are generated per edge, so each element is
// an automorphism of the global transition relation: s → t implies
// σ(s) → σ(t).  That is the one property quotient soundness rests on;
// family.PackedInstance.IndexAction checks it on every built instance
// through kripke.NewIndexAction.
//
// Conventions.  A Perm p acts as a source map: field i of Apply(p, code)
// is field p[i] of code.  Compose(a, b) applies b first, so
// Apply(Compose(a, b), x) == Apply(a, Apply(b, x)).  Canon(code) is the
// minimum code in the orbit of code (as a uint64), which makes canonical
// representatives total-order canonical and independent of the exploration
// order.
package symmetry

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Perm is a permutation of the fields of a packed code, as a source map:
// field i of the image is field p[i] of the argument.
type Perm []int32

// Identity returns the identity permutation on degree fields.
func Identity(degree int) Perm {
	p := make(Perm, degree)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Compose returns the permutation applying b first, then a:
// Apply(Compose(a, b), x) == Apply(a, Apply(b, x)).
func Compose(a, b Perm) Perm {
	out := make(Perm, len(a))
	for i := range a {
		out[i] = b[a[i]]
	}
	return out
}

// Equal reports whether two permutations are identical.
func (p Perm) Equal(q Perm) bool { return slices.Equal(p, q) }

// Group is a permutation group acting on the fields of packed codes.
type Group struct {
	name   string
	degree int
	bits   uint
	gens   []Perm
	// canonW computes the orbit-canonical code with a witness permutation
	// (Apply(w, code) == canon); nil selects the generic orbit search.
	canonW func(code uint64) (uint64, Perm)
	// orderFn is the closed-form group order; nil enumerates elements.
	orderFn func() uint64
}

// Name returns the group's name (e.g. "C12", "S4", "rev", "T2x3").
func (g *Group) Name() string { return g.name }

// Degree returns the number of fields acted on.
func (g *Group) Degree() int { return g.degree }

// Bits returns the field width in bits.
func (g *Group) Bits() uint { return g.bits }

// Generators returns a copy of the generating set.
func (g *Group) Generators() []Perm {
	out := make([]Perm, len(g.gens))
	for i, p := range g.gens {
		out[i] = slices.Clone(p)
	}
	return out
}

// fieldsMask returns the mask covering the degree acted-on fields.
func (g *Group) fieldsMask() uint64 {
	width := g.bits * uint(g.degree)
	if width >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<width - 1
}

// Apply applies a permutation to a code, permuting the low degree fields
// and preserving any tail bits beyond them.
func (g *Group) Apply(p Perm, code uint64) uint64 {
	fmask := uint64(1)<<g.bits - 1
	var out uint64
	for i := 0; i < g.degree; i++ {
		out |= (code >> (g.bits * uint(p[i])) & fmask) << (g.bits * uint(i))
	}
	return out | code&^g.fieldsMask()
}

// Canon returns the orbit-canonical representative of code: the minimum
// code (as a uint64) in its orbit.  Canon is idempotent, constant on
// orbits, and safe for concurrent use.
func (g *Group) Canon(code uint64) uint64 {
	c, _ := g.CanonWitness(code)
	return c
}

// CanonWitness returns the canonical representative together with a
// witness permutation w satisfying Apply(w, code) == canon.  The witness
// is deterministic: the same code always yields the same permutation.
func (g *Group) CanonWitness(code uint64) (uint64, Perm) {
	if g.canonW != nil {
		return g.canonW(code)
	}
	return g.orbitCanon(code)
}

// orbitCanonCap bounds the generic orbit search; the constructors in this
// package only leave the generic path to groups with small orbits (tree
// automorphisms of heap-shaped trees), so hitting the cap is a programming
// error, not a data condition.
const orbitCanonCap = 1 << 20

// orbitCanon is the generic canonicalisation: a breadth-first closure of
// code under the generators, tracking the permutation reaching each orbit
// member.  Deterministic because the frontier is a slice, not a map.
func (g *Group) orbitCanon(code uint64) (uint64, Perm) {
	type node struct {
		code uint64
		p    Perm
	}
	id := Identity(g.degree)
	seen := []node{{code, id}}
	best, bestP := code, id
	for i := 0; i < len(seen); i++ {
		cur := seen[i]
		for _, gen := range g.gens {
			nc := g.Apply(gen, cur.code)
			dup := false
			for _, s := range seen {
				if s.code == nc {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			np := Compose(gen, cur.p)
			seen = append(seen, node{nc, np})
			if nc < best {
				best, bestP = nc, np
			}
			if len(seen) > orbitCanonCap {
				panic(fmt.Sprintf("symmetry: %s: orbit of %#x exceeds %d codes", g.name, code, orbitCanonCap))
			}
		}
	}
	return best, bestP
}

// OrbitAppend appends every code in the orbit of code to dst (in closure
// discovery order, starting with code itself) and returns dst.
func (g *Group) OrbitAppend(dst []uint64, code uint64) []uint64 {
	start := len(dst)
	dst = append(dst, code)
	for i := start; i < len(dst); i++ {
		for _, gen := range g.gens {
			nc := g.Apply(gen, dst[i])
			if !slices.Contains(dst[start:], nc) {
				dst = append(dst, nc)
			}
		}
		if len(dst)-start > orbitCanonCap {
			panic(fmt.Sprintf("symmetry: %s: orbit of %#x exceeds %d codes", g.name, code, orbitCanonCap))
		}
	}
	return dst
}

// OrbitSize returns the size of the orbit of code.
func (g *Group) OrbitSize(code uint64) int { return len(g.OrbitAppend(nil, code)) }

// Order returns the group order, saturating at math.MaxUint64 when the
// closed form overflows; groups without a closed form enumerate their
// elements (and saturate if enumeration exceeds the internal cap).
func (g *Group) Order() uint64 {
	if g.orderFn != nil {
		return g.orderFn()
	}
	elems, ok := g.Elements(orbitCanonCap)
	if !ok {
		return math.MaxUint64
	}
	return uint64(len(elems))
}

// Elements enumerates the group as the closure of its generators, in a
// deterministic order starting with the identity.  It returns ok == false
// (and a nil slice) if the group has more than cap elements.
func (g *Group) Elements(cap int) ([]Perm, bool) {
	elems := []Perm{Identity(g.degree)}
	for i := 0; i < len(elems); i++ {
		for _, gen := range g.gens {
			np := Compose(gen, elems[i])
			dup := false
			for _, e := range elems {
				if e.Equal(np) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			elems = append(elems, np)
			if len(elems) > cap {
				return nil, false
			}
		}
	}
	return elems, true
}

// satFactorial returns n! saturating at math.MaxUint64.
func satFactorial(n int) uint64 {
	out := uint64(1)
	for k := 2; k <= n; k++ {
		hi, lo := bits.Mul64(out, uint64(k))
		if hi != 0 {
			return math.MaxUint64
		}
		out = lo
	}
	return out
}

// Cyclic returns the rotation group C_degree of a ring, acting on
// degree fields of the given width.  Canonicalisation is O(degree) whole-
// word rotations — no per-field work.
func Cyclic(degree int, fieldBits uint) *Group {
	g := &Group{
		name:    fmt.Sprintf("C%d", degree),
		degree:  degree,
		bits:    fieldBits,
		orderFn: func() uint64 { return uint64(degree) },
	}
	if degree >= 2 {
		// The single-step rotation σ_1 maps process i to i+1, so field j of
		// the image is field j-1 of the argument.
		rot := make(Perm, degree)
		for j := range rot {
			rot[j] = int32(((j-1)%degree + degree) % degree)
		}
		g.gens = []Perm{rot}
	}
	width := fieldBits * uint(degree)
	mask := g.fieldsMask()
	g.canonW = func(code uint64) (uint64, Perm) {
		best, bestK := code&mask, 0
		c := code & mask
		for k := 1; k < degree; k++ {
			c = (c<<fieldBits | c>>(width-fieldBits)) & mask
			if c < best {
				best, bestK = c, k
			}
		}
		w := make(Perm, degree)
		for j := range w {
			w[j] = int32(((j-bestK)%degree + degree) % degree)
		}
		return best | code&^mask, w
	}
	return g
}

// SymmetricRange returns the symmetric group on the fields [lo, hi) —
// every permutation of those fields, identity elsewhere.  This is the star
// topology's leaf-permutation group (hub fixed).  Canonicalisation sorts
// the field values, so it needs no enumeration even when (hi-lo)! is
// astronomically large.
func SymmetricRange(degree int, fieldBits uint, lo, hi int) *Group {
	if lo < 0 || hi > degree || lo > hi {
		panic(fmt.Sprintf("symmetry: SymmetricRange(%d, [%d,%d)): invalid range", degree, lo, hi))
	}
	n := hi - lo
	g := &Group{
		name:    fmt.Sprintf("S%d", n),
		degree:  degree,
		bits:    fieldBits,
		orderFn: func() uint64 { return satFactorial(n) },
	}
	if n >= 2 {
		swap := Identity(degree)
		swap[lo], swap[lo+1] = swap[lo+1], swap[lo]
		g.gens = append(g.gens, swap)
	}
	if n >= 3 {
		cycle := Identity(degree)
		for i := 0; i < n; i++ {
			cycle[lo+i] = int32(lo + (i+1)%n)
		}
		g.gens = append(g.gens, cycle)
	}
	fmask := uint64(1)<<fieldBits - 1
	g.canonW = func(code uint64) (uint64, Perm) {
		// Sort the permutable fields by descending value (by original index
		// on ties, for a deterministic witness): the orbit minimum of the
		// packed integer puts the largest values in the least-significant
		// fields.
		type fv struct {
			idx int32
			val uint64
		}
		fields := make([]fv, n)
		for i := 0; i < n; i++ {
			fields[i] = fv{int32(lo + i), code >> (fieldBits * uint(lo+i)) & fmask}
		}
		slices.SortStableFunc(fields, func(a, b fv) int {
			if a.val != b.val {
				return cmp.Compare(b.val, a.val)
			}
			return cmp.Compare(a.idx, b.idx)
		})
		w := Identity(degree)
		out := code
		for i, f := range fields {
			w[lo+i] = f.idx
			shift := fieldBits * uint(lo+i)
			out = out&^(fmask<<shift) | f.val<<shift
		}
		return out, w
	}
	return g
}

// Reversal returns the order-2 group {id, reverse} of a line: the
// end-to-end flip i ↦ degree-1-i.
func Reversal(degree int, fieldBits uint) *Group {
	rev := make(Perm, degree)
	for i := range rev {
		rev[i] = int32(degree - 1 - i)
	}
	g := &Group{
		name:   "rev",
		degree: degree,
		bits:   fieldBits,
	}
	if degree >= 2 {
		g.gens = []Perm{rev}
	}
	g.orderFn = func() uint64 { return uint64(len(g.gens)) + 1 }
	g.canonW = func(code uint64) (uint64, Perm) {
		if degree < 2 {
			return code, Identity(degree)
		}
		if r := g.Apply(rev, code); r < code {
			return r, slices.Clone(rev)
		}
		return code, Identity(degree)
	}
	return g
}

// TreeHeap returns the automorphism subgroup of the heap-shaped tree on
// nodes 1..n (node i's children are 2i and 2i+1; node i lives in field
// i-1) generated by aligned sibling-subtree swaps: for every node whose
// two child subtrees have identical shapes, the permutation exchanging
// them level by level.  Canonicalisation is the generic orbit search,
// which stays tiny because these groups are small for the tree sizes the
// explicit engines construct.
func TreeHeap(n int, fieldBits uint) *Group {
	var shapeIso func(a, b int) bool
	shapeIso = func(a, b int) bool {
		if (a <= n) != (b <= n) {
			return false
		}
		if a > n {
			return true
		}
		return shapeIso(2*a, 2*b) && shapeIso(2*a+1, 2*b+1)
	}
	var gens []Perm
	for v := 1; v <= n; v++ {
		l, r := 2*v, 2*v+1
		if r > n || !shapeIso(l, r) {
			continue
		}
		p := Identity(n)
		var swap func(a, b int)
		swap = func(a, b int) {
			if a > n {
				return
			}
			p[a-1], p[b-1] = int32(b-1), int32(a-1)
			swap(2*a, 2*b)
			swap(2*a+1, 2*b+1)
		}
		swap(l, r)
		gens = append(gens, p)
	}
	return &Group{
		name:   fmt.Sprintf("Tree%d", n),
		degree: n,
		bits:   fieldBits,
		gens:   gens,
	}
}

// TorusTranslations returns the translation group Z_rows × Z_cols of a
// torus grid in row-major packing (the process at (row, col) lives in
// field row*cols+col).  Canonicalisation takes the minimum over all
// rows·cols translations.
func TorusTranslations(rows, cols int, fieldBits uint) *Group {
	degree := rows * cols
	at := func(r, c int) int { return r*cols + c }
	translation := func(dr, dc int) Perm {
		p := make(Perm, degree)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				p[at(r, c)] = int32(at(((r-dr)%rows+rows)%rows, ((c-dc)%cols+cols)%cols))
			}
		}
		return p
	}
	elems := make([]Perm, 0, degree)
	for dr := 0; dr < rows; dr++ {
		for dc := 0; dc < cols; dc++ {
			elems = append(elems, translation(dr, dc))
		}
	}
	g := &Group{
		name:    fmt.Sprintf("T%dx%d", rows, cols),
		degree:  degree,
		bits:    fieldBits,
		orderFn: func() uint64 { return uint64(degree) },
	}
	if rows >= 2 {
		g.gens = append(g.gens, translation(1, 0))
	}
	if cols >= 2 {
		g.gens = append(g.gens, translation(0, 1))
	}
	g.canonW = func(code uint64) (uint64, Perm) {
		best, bestI := code, 0
		for i, p := range elems {
			if c := g.Apply(p, code); c < best {
				best, bestI = c, i
			}
		}
		return best, slices.Clone(elems[bestI])
	}
	return g
}

package symmetry

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/explore"
	"repro/internal/kripke"
)

// QuotientDef lifts an explore.Def to its quotient under g: the initial
// state and every successor are replaced by their orbit-canonical
// representatives.  Running any exploration engine on the result
// enumerates one state per reachable orbit — this is how orbit counting
// scales past the full space's limits, and it composes with the parallel
// engine because Canon is safe for concurrent use.
func QuotientDef(def explore.Def, g *Group) explore.Def {
	return explore.Def{
		Name:       def.Name + "/" + g.Name(),
		Init:       g.Canon(def.Init),
		NumIndices: def.NumIndices,
		Succ: func(dst []uint64, code uint64) ([]uint64, error) {
			base := len(dst)
			dst, err := def.Succ(dst, code)
			if err != nil {
				return dst, err
			}
			for i := base; i < len(dst); i++ {
				dst[i] = g.Canon(dst[i])
			}
			return dst, nil
		},
		Label: def.Label,
	}
}

// qedge is one quotient transition: the successor orbit dst together with
// the interned witness permutation reconstructing the concrete successor —
// the rep's actual successor is Apply(perms[wit], reps[dst]).
type qedge struct {
	dst, wit int32
}

// Quotient is a symmetry-reduced state space: one representative per
// reachable orbit, with witness-decorated transitions that retain enough
// information to unfold the full space without ever re-canonicalising.
type Quotient struct {
	def   explore.Def
	g     *Group
	reps  []uint64
	repIx map[uint64]int32
	edges [][]qedge
	perms []Perm
}

// Group returns the acting group.
func (q *Quotient) Group() *Group { return q.g }

// NumReps returns the number of reachable orbits.
func (q *Quotient) NumReps() int { return len(q.reps) }

// Rep returns the canonical representative code of orbit i.
func (q *Quotient) Rep(i int32) uint64 { return q.reps[i] }

// NumTransitions returns the number of quotient transitions (counting
// distinct (orbit, witness) pairs, i.e. distinct concrete successors of
// each representative).
func (q *Quotient) NumTransitions() int {
	n := 0
	for _, es := range q.edges {
		n += len(es)
	}
	return n
}

// BuildQuotient explores the quotient of def under g by breadth-first
// search over orbit representatives, storing for every transition the
// witness permutation that reconstructs the concrete successor.  maxReps
// caps the orbit count (zero: explore.DefaultMaxStates).
func BuildQuotient(ctx context.Context, def explore.Def, g *Group, maxReps int) (*Quotient, error) {
	if maxReps <= 0 {
		maxReps = explore.DefaultMaxStates
	}
	q := &Quotient{
		def:   def,
		g:     g,
		repIx: make(map[uint64]int32),
	}
	permIx := make(map[string]int32)
	intern := func(p Perm) int32 {
		key := permKey(p)
		if id, ok := permIx[key]; ok {
			return id
		}
		id := int32(len(q.perms))
		q.perms = append(q.perms, p)
		permIx[key] = id
		return id
	}
	addRep := func(code uint64) (int32, error) {
		if id, ok := q.repIx[code]; ok {
			return id, nil
		}
		if len(q.reps) >= maxReps {
			return 0, fmt.Errorf("symmetry: %s: more than %d orbits: %w", def.Name, maxReps, explore.ErrLimit)
		}
		id := int32(len(q.reps))
		q.reps = append(q.reps, code)
		q.repIx[code] = id
		q.edges = append(q.edges, nil)
		return id, nil
	}
	init, _ := g.CanonWitness(def.Init)
	if _, err := addRep(init); err != nil {
		return nil, err
	}
	var succBuf []uint64
	for frontier := 0; frontier < len(q.reps); frontier++ {
		if frontier&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var err error
		succBuf, err = def.Succ(succBuf[:0], q.reps[frontier])
		if err != nil {
			return nil, fmt.Errorf("symmetry: %s: successors of orbit %d: %w", def.Name, frontier, err)
		}
		for _, t := range succBuf {
			canon, w := g.CanonWitness(t)
			dst, err := addRep(canon)
			if err != nil {
				return nil, err
			}
			// Apply(w, t) == canon, so t == Apply(Inverse(w), canon).
			e := qedge{dst: dst, wit: intern(Inverse(w))}
			if !slices.Contains(q.edges[frontier], e) {
				q.edges[frontier] = append(q.edges[frontier], e)
			}
		}
	}
	return q, nil
}

// permKey returns a map key for a permutation (degrees here are < 256).
func permKey(p Perm) string {
	buf := make([]byte, len(p))
	for i, v := range p {
		buf[i] = byte(v)
	}
	return string(buf)
}

// Unfolded is a full state space reconstructed from a Quotient: every
// state carries its concrete code, its orbit, and the group element
// mapping the orbit representative onto it.
type Unfolded struct {
	codes []uint64
	repOf []int32
	prmOf []int32 // into perms: code == Apply(perms[prmOf[s]], reps[repOf[s]])
	perms []Perm  // interned group elements (extends the quotient's table)
	succ  []int32
	off   []int64
	q     *Quotient
}

// NumStates returns the number of unfolded (concrete) states.
func (u *Unfolded) NumStates() int { return len(u.codes) }

// NumTransitions returns the number of unfolded transitions.
func (u *Unfolded) NumTransitions() int { return len(u.succ) }

// Code returns the concrete code of state s.
func (u *Unfolded) Code(s int32) uint64 { return u.codes[s] }

// Codes returns every unfolded code in state order (shared backing).
func (u *Unfolded) Codes() []uint64 { return u.codes }

// RepOf returns the orbit of state s.
func (u *Unfolded) RepOf(s int32) int32 { return u.repOf[s] }

// Succ returns the successors of state s, sorted ascending (shared
// backing).
func (u *Unfolded) Succ(s int32) []int32 { return u.succ[u.off[s]:u.off[s+1]] }

// Unfold reconstructs the full reachable space from the quotient, starting
// at the definition's concrete initial state.  It never calls Canon or the
// definition's successor function: every concrete state is
// Apply(σ, rep) for a tracked group element σ, and its successors come
// from composing σ with the stored edge witnesses.  That independence is
// what makes the differential test against a direct build meaningful.
func Unfold(ctx context.Context, q *Quotient, maxStates int) (*Unfolded, error) {
	if maxStates <= 0 {
		maxStates = explore.DefaultMaxStates
	}
	u := &Unfolded{q: q, off: []int64{0}, perms: slices.Clone(q.perms)}
	index := make(map[uint64]int32)
	permIx := make(map[string]int32)
	//lint:ctxloop seeds the permutation index, bounded by the tracked group elements
	for i, p := range q.perms {
		permIx[permKey(p)] = int32(i)
	}
	intern := func(p Perm) int32 {
		key := permKey(p)
		if id, ok := permIx[key]; ok {
			return id
		}
		id := int32(len(u.perms))
		u.perms = append(u.perms, p)
		permIx[key] = id
		return id
	}
	add := func(code uint64, rep, prm int32) (int32, error) {
		if id, ok := index[code]; ok {
			return id, nil
		}
		if len(u.codes) >= maxStates {
			return 0, fmt.Errorf("symmetry: unfolding %s: more than %d states: %w", q.def.Name, maxStates, explore.ErrLimit)
		}
		id := int32(len(u.codes))
		u.codes = append(u.codes, code)
		u.repOf = append(u.repOf, rep)
		u.prmOf = append(u.prmOf, prm)
		index[code] = id
		return id, nil
	}
	canon0, w0 := q.g.CanonWitness(q.def.Init)
	rep0, ok := q.repIx[canon0]
	if !ok {
		return nil, fmt.Errorf("symmetry: unfolding %s: initial orbit %#x missing from the quotient", q.def.Name, canon0)
	}
	if _, err := add(q.def.Init, rep0, intern(Inverse(w0))); err != nil {
		return nil, err
	}
	var row []int32
	for frontier := 0; frontier < len(u.codes); frontier++ {
		if frontier&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sigma := u.perms[u.prmOf[frontier]]
		row = row[:0]
		for _, e := range q.edges[u.repOf[frontier]] {
			// The rep's concrete successor is Apply(p_e, reps[dst]); the
			// frontier state is Apply(σ, rep), so its successor is
			// Apply(σ∘p_e, reps[dst]).
			p := Compose(sigma, q.perms[e.wit])
			code := q.g.Apply(p, q.reps[e.dst])
			id, err := add(code, e.dst, intern(p))
			if err != nil {
				return nil, err
			}
			row = append(row, id)
		}
		slices.Sort(row)
		row = slices.Compact(row)
		u.succ = append(u.succ, row...)
		u.off = append(u.off, u.off[len(u.off)-1]+int64(len(row)))
	}
	return u, nil
}

// Structure materialises the unfolded space as a labelled (partial) Kripke
// structure through the builder fast paths, named like the original
// definition.  States keep the unfold numbering; callers that need
// totality validate or complete it exactly as on the direct path.
func (u *Unfolded) Structure() (*kripke.Structure, error) {
	def := u.q.def
	if def.Label == nil {
		return nil, fmt.Errorf("symmetry: unfolding %s: Def.Label is nil", def.Name)
	}
	b := kripke.NewBuilder(def.Name)
	b.Grow(len(u.codes), len(u.succ))
	for i := 1; i <= def.NumIndices; i++ {
		b.DeclareIndex(i)
	}
	var scratch []kripke.Prop
	for _, code := range u.codes {
		scratch = def.Label(scratch[:0], code)
		b.AddState(scratch...)
	}
	if err := b.SetInitial(0); err != nil {
		return nil, err
	}
	for s := range u.codes {
		if err := b.AddTransitionRow(kripke.State(s), u.Succ(int32(s))); err != nil {
			return nil, err
		}
	}
	m, err := b.BuildPartial()
	if err != nil {
		return nil, fmt.Errorf("symmetry: building unfolded %s: %w", def.Name, err)
	}
	return m, nil
}

// Certificate records the checks a Verify pass ran over an unfolding.
type Certificate struct {
	// States and Reps are the unfolded state and orbit counts.
	States, Reps int
	// OrbitClosed reports whether the reachable set is a union of complete
	// orbits (the orbit sizes of the representatives sum to States).  It
	// holds for every family in this repository; a false value means the
	// initial state breaks more symmetry than the group expresses.
	OrbitClosed bool
	// MembershipChecked counts the states whose orbit data was validated:
	// the state's code canonicalises to its orbit representative and the
	// tracked group element maps the representative onto it.
	MembershipChecked int
	// SuccChecked counts the states whose successor rows were re-derived
	// through the original definition and matched the unfolded rows
	// exactly.
	SuccChecked int
}

// Verify checks an unfolding against the original definition: orbit
// membership and successor rows are validated at sample states (every
// state when sample ≥ NumStates, an evenly strided subset otherwise —
// deterministic, no randomness), and orbit closure is checked exactly.
// It returns the certificate describing what was checked, or an error
// describing the first discrepancy.
func (q *Quotient) Verify(ctx context.Context, u *Unfolded, sample int) (*Certificate, error) {
	cert := &Certificate{States: u.NumStates(), Reps: q.NumReps()}
	if sample <= 0 {
		sample = 1024
	}
	stride := 1
	if u.NumStates() > sample {
		stride = u.NumStates() / sample
	}
	var succBuf []uint64
	for s := 0; s < u.NumStates(); s += stride {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		code := u.codes[s]
		rep := q.reps[u.repOf[s]]
		if got := q.g.Canon(code); got != rep {
			return nil, fmt.Errorf("symmetry: verify %s: state %d code %#x canonicalises to %#x, recorded orbit is %#x",
				q.def.Name, s, code, got, rep)
		}
		if got := q.g.Apply(u.PermOf(int32(s)), rep); got != code {
			return nil, fmt.Errorf("symmetry: verify %s: state %d witness maps rep %#x to %#x, want %#x",
				q.def.Name, s, rep, got, code)
		}
		cert.MembershipChecked++
		var err error
		succBuf, err = q.def.Succ(succBuf[:0], code)
		if err != nil {
			return nil, fmt.Errorf("symmetry: verify %s: successors of state %d: %w", q.def.Name, s, err)
		}
		want := map[uint64]bool{}
		for _, t := range succBuf {
			want[t] = true
		}
		row := u.Succ(int32(s))
		if len(row) != len(want) {
			return nil, fmt.Errorf("symmetry: verify %s: state %d has %d unfolded successors, direct derivation gives %d",
				q.def.Name, s, len(row), len(want))
		}
		for _, t := range row {
			if !want[u.codes[t]] {
				return nil, fmt.Errorf("symmetry: verify %s: state %d has unfolded successor %#x the direct derivation lacks",
					q.def.Name, s, u.codes[t])
			}
		}
		cert.SuccChecked++
	}
	total := 0
	for _, rep := range q.reps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		total += q.g.OrbitSize(rep)
	}
	cert.OrbitClosed = total == u.NumStates()
	return cert, nil
}

// PermOf returns the recorded group element mapping state s's orbit
// representative onto its concrete code.
func (u *Unfolded) PermOf(s int32) Perm { return u.perms[u.prmOf[s]] }

// RepStructure materialises the quotient itself as a labelled (partial)
// Kripke structure: one state per orbit, labelled by its representative,
// with a transition per successor orbit.  The result is sound only for
// properties invariant under the group (e.g. the single-token invariant
// "AG (one t)"), because non-representative labellings are collapsed; use
// Unfold for anything index-sensitive.
func (q *Quotient) RepStructure() (*kripke.Structure, error) {
	def := q.def
	if def.Label == nil {
		return nil, fmt.Errorf("symmetry: %s: Def.Label is nil", def.Name)
	}
	b := kripke.NewBuilder(def.Name + "/" + q.g.Name())
	b.Grow(len(q.reps), q.NumTransitions())
	for i := 1; i <= def.NumIndices; i++ {
		b.DeclareIndex(i)
	}
	var scratch []kripke.Prop
	for _, code := range q.reps {
		scratch = def.Label(scratch[:0], code)
		b.AddState(scratch...)
	}
	if err := b.SetInitial(0); err != nil {
		return nil, err
	}
	row := make([]int32, 0, 16)
	for s, es := range q.edges {
		row = row[:0]
		for _, e := range es {
			row = append(row, e.dst)
		}
		slices.Sort(row)
		row = slices.Compact(row)
		if err := b.AddTransitionRow(kripke.State(s), row); err != nil {
			return nil, err
		}
	}
	m, err := b.BuildPartial()
	if err != nil {
		return nil, fmt.Errorf("symmetry: building quotient %s: %w", def.Name, err)
	}
	return m, nil
}

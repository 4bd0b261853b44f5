package bisim

import (
	"context"
	"fmt"

	"repro/internal/kripke"
	"repro/internal/logic"
)

// This file extracts *evidence* from a failed correspondence: a concrete
// CTL* (no nexttime) formula that is true on one side and false on the
// other, together with a game path demonstrating the decisive move.
//
// The core theorem of the paper (Theorems 2 and 5) says two states are
// related by the maximal correspondence iff they satisfy the same CTL*-X
// formulas, so whenever Compute answers "not equivalent" a distinguishing
// formula must exist.  The extraction runs the partition refinement of
// refine.go with a provenance recorder attached: every split is recorded as
// a node of a block tree whose edges remember the splitter and the split
// kind, in the style of Korver's distinguishing-formula construction for
// branching bisimulation, adapted to the divergence-sensitive stuttering
// equivalence the engine decides:
//
//   - a root block is a label class; two states in different roots are
//     separated by a single literal (an atom, its negation, or an O_i P_i
//     "exactly one" atom);
//   - a reachability split of block B against splitter S separates states
//     that can reach S inside B from those that cannot; the separating
//     formula is E[Φ(B) U Φ(S)], where Φ(·) is the characterizing formula
//     of a block at the time of the split (built recursively from the same
//     tree);
//   - a divergence split separates states that can stutter forever inside B
//     from those that cannot; the separating formula is EG Φ(B).
//
// The characterizing formulas are exact (true on precisely the block's
// members among all states of both structures), which makes every emitted
// distinguishing formula self-verifying: callers replay it through the
// model checker of internal/mc and confirm it holds on one side and fails
// on the other (see mc.ReplayEvidence).
//
// There is one refinement loop.  The refiner calls the recorder once per
// initial label block and once per proper split; under Compute the
// recorder is nil, so the hot loops pay one pointer test per split.

// EvidenceReason says which clause of the correspondence definition the
// evidence refutes.
type EvidenceReason string

// The evidence reasons.
const (
	// ReasonInitial: the initial states are not related (clause 1); the
	// formula distinguishes them directly.
	ReasonInitial EvidenceReason = "initial-states-distinguished"
	// ReasonTotalLeft: some state of the left structure is related to no
	// state of the right one (totality); the formula characterizes that
	// orphaned state's equivalence class, which the right structure cannot
	// enter.
	ReasonTotalLeft EvidenceReason = "left-state-unmatched"
	// ReasonTotalRight: some state of the right structure is related to no
	// state of the left one.
	ReasonTotalRight EvidenceReason = "right-state-unmatched"
	// ReasonIndexRelation: the index relation IN itself is not total, so no
	// state-level formula applies (Evidence.Formula is nil).
	ReasonIndexRelation EvidenceReason = "index-relation-not-total"
)

// Evidence is a machine-checkable explanation of a failed correspondence:
// a closed CTL* (no nexttime) state formula over the compared vocabulary
// that is true at LeftState of Left and false at RightState of Right.
type Evidence struct {
	// Reason identifies the violated clause.
	Reason EvidenceReason
	// Left and Right are the structures the formula speaks about (for an
	// indexed correspondence, the normalised reductions of the failing
	// pair).
	Left, Right *kripke.Structure
	// Formula is true at (Left, LeftState) and false at (Right,
	// RightState).  It is nil only for ReasonIndexRelation.
	Formula logic.Formula
	// LeftState / RightState are the states the formula's truth values are
	// asserted at (the initial states except for unreachable-orphan
	// totality failures).
	LeftState  kripke.State
	RightState kripke.State
	// GamePath demonstrates the decisive condition of the formula — the
	// stuttering path into the splitter, the divergence lasso, or the path
	// to the orphaned state — on the side named by GameSide ("left" or
	// "right").  GameLoop is the index the trailing loop re-enters, or -1.
	GamePath []kripke.State
	GameSide string
	GameLoop int
}

// String renders the evidence on one line.
func (e *Evidence) String() string {
	if e == nil {
		return "<no evidence>"
	}
	if e.Formula == nil {
		return string(e.Reason)
	}
	return fmt.Sprintf("%s: %s (true at %s state %d, false at %s state %d)",
		e.Reason, e.Formula, e.Left.Name(), e.LeftState, e.Right.Name(), e.RightState)
}

// Explain produces distinguishing evidence for a failed correspondence
// between m and m2 under opts.  res is the outcome of Compute for the same
// arguments (nil makes Explain run Compute itself).  It returns (nil, nil)
// when the structures correspond.  Cancelling ctx aborts the extraction.
func Explain(ctx context.Context, m, m2 *kripke.Structure, opts Options, res *Result) (*Evidence, error) {
	if res == nil {
		r, err := Compute(ctx, m, m2, opts)
		if err != nil {
			return nil, err
		}
		res = r
	}
	if res.Corresponds() {
		return nil, nil
	}
	n, n2 := m.NumStates(), m2.NumStates()
	if n == 0 || n2 == 0 {
		return nil, fmt.Errorf("bisim: Explain: structures must be non-empty (got %d and %d states)", n, n2)
	}
	// Run the production refiner with the recorder attached, directly
	// rather than through Compute: evidence needs the partition's history,
	// not the degrees.
	r, compLabel, err := newRefiner(ctx, m, m2, opts, new(computeArena))
	if err != nil {
		return nil, err
	}
	ex := &explainer{m: m, m2: m2, opts: opts, n: n, n2: n2, r: r, compRep: make([]int, r.cN)}
	for u := n + n2 - 1; u >= 0; u-- {
		ex.compRep[r.comp[u]] = u
	}
	r.prov = ex
	r.initPartition(compLabel)
	if err := r.stabilize(ctx, &Result{}); err != nil {
		return nil, err
	}
	switch {
	case !res.InitialRelated:
		return ex.explainInitial(m.Initial(), m2.Initial())
	case !res.TotalLeft:
		u, ok := ex.orphanLeft(res, opts)
		if !ok {
			return nil, fmt.Errorf("bisim: Explain: result reports a left totality failure but every left state is matched")
		}
		return ex.explainOrphan(u, true)
	case !res.TotalRight:
		v, ok := ex.orphanRight(res, opts)
		if !ok {
			return nil, fmt.Errorf("bisim: Explain: result reports a right totality failure but every right state is matched")
		}
		return ex.explainOrphan(v, false)
	default:
		return nil, fmt.Errorf("bisim: Explain: result does not correspond but no clause failure was identified")
	}
}

// ExplainIndexed produces evidence for a failed indexed correspondence: it
// picks the first failing index pair of res, rebuilds the two normalised
// reductions and explains their non-correspondence.  The returned
// evidence's Left/Right structures are those reductions.  When only the IN
// relation's totality failed, the evidence carries ReasonIndexRelation and
// no formula.
func ExplainIndexed(ctx context.Context, m, m2 *kripke.Structure, res *IndexedResult, opts Options) (*Evidence, IndexPair, error) {
	if res == nil {
		return nil, IndexPair{}, fmt.Errorf("bisim: ExplainIndexed: nil result")
	}
	if res.Corresponds() {
		return nil, IndexPair{}, nil
	}
	failing := res.FailingPairs()
	if len(failing) == 0 {
		// Every per-pair correspondence holds; the failure is IN totality.
		return &Evidence{Reason: ReasonIndexRelation, GameLoop: -1}, IndexPair{}, nil
	}
	p := failing[0]
	pr, _ := res.Pair(p)
	left := m.ReduceNormalized(p.I)
	right := m2.ReduceNormalized(p.I2)
	ev, err := Explain(ctx, left, right, opts, pr)
	if err != nil {
		return nil, p, err
	}
	if ev == nil {
		return nil, p, fmt.Errorf("bisim: ExplainIndexed: pair (%d,%d) reported failing but its reductions correspond", p.I, p.I2)
	}
	return ev, p, nil
}

// ---------------------------------------------------------------------------
// The provenance recorder.
// ---------------------------------------------------------------------------

type splitKind int

const (
	rootBlock splitKind = iota
	reachPos
	reachNeg
	divPos
	divNeg
)

// enode is one historical block of the refinement: immutable once split,
// with the provenance needed to rebuild its characterizing formula.
type enode struct {
	id       int32
	kind     splitKind
	parent   int32 // -1 for roots
	splitter int32 // snapshot of the splitter node, reach splits only
	label    int32 // index into explainer.classes, roots only
	members  kripke.BitSet

	formula logic.Formula // memoized characterizing formula
}

// explainer records the splits of the production refiner (refine.go) as a
// tree of immutable enodes, and builds formulas and evidence from it.
type explainer struct {
	m, m2 *kripke.Structure
	opts  Options
	n, n2 int

	r       *refiner
	compRep []int          // one union state per contracted node
	classes []kripke.State // representative union state per root

	nodes []*enode
	leaf  []int32 // current enode of every refiner block
}

// recordRoot records an initial label block.  The refiner recycles block
// sets, so the members are copied.
func (ex *explainer) recordRoot(set kripke.BitSet) {
	first := -1
	set.ForEach(func(c int) bool { first = c; return false })
	label := int32(len(ex.classes))
	ex.classes = append(ex.classes, kripke.State(ex.compRep[first]))
	ex.leaf = append(ex.leaf, ex.addNode(&enode{kind: rootBlock, parent: -1, splitter: -1, label: label, members: set.Clone()}))
}

// recordSplit records the proper split of refiner block bid into pos, which
// keeps the id bid, and rest, which becomes the next new block; splitter is
// the refiner block of a reach split, -1 for a divergence split.
func (ex *explainer) recordSplit(bid int32, pos, rest kripke.BitSet, splitter int32) {
	parent := ex.leaf[bid]
	posKind, negKind, spNode := divPos, divNeg, int32(-1)
	if splitter >= 0 {
		posKind, negKind, spNode = reachPos, reachNeg, ex.leaf[splitter]
	}
	ex.leaf[bid] = ex.addNode(&enode{kind: posKind, parent: parent, splitter: spNode, members: pos.Clone()})
	ex.leaf = append(ex.leaf, ex.addNode(&enode{kind: negKind, parent: parent, splitter: spNode, members: rest.Clone()}))
}

// leafOf returns the current enode of union state u.
func (ex *explainer) leafOf(u int) int32 { return ex.leaf[ex.r.blockOf[ex.r.comp[u]]] }

// unionSucc returns the successors of union state u as union states.
func (ex *explainer) unionSucc(u int) []int {
	var out []int
	if u < ex.n {
		for _, v := range ex.m.Succ(kripke.State(u)) {
			out = append(out, int(v))
		}
		return out
	}
	for _, v := range ex.m2.Succ(kripke.State(u - ex.n)) {
		out = append(out, ex.n+int(v))
	}
	return out
}

// sideState maps union state u to its structure and state.
func (ex *explainer) sideState(u int) (*kripke.Structure, kripke.State) {
	if u < ex.n {
		return ex.m, kripke.State(u)
	}
	return ex.m2, kripke.State(u - ex.n)
}

func (ex *explainer) addNode(nd *enode) int32 {
	nd.id = int32(len(ex.nodes))
	ex.nodes = append(ex.nodes, nd)
	return nd.id
}

// ---------------------------------------------------------------------------
// Formula construction.
// ---------------------------------------------------------------------------

// propFormula turns a structure proposition into the matching formula atom.
func propFormula(p kripke.Prop) logic.Formula {
	if p.Indexed {
		return logic.InstProp(p.Name, p.Index)
	}
	return logic.Prop(p.Name)
}

// literal returns a single literal true at union state a and false at union
// state b, which must lie in different label classes: a discriminating
// atom, its negation, or an "exactly one" atom.
func (ex *explainer) literal(a, b int) (logic.Formula, error) {
	ma, sa := ex.sideState(a)
	mb, sb := ex.sideState(b)
	for _, p := range ma.Label(sa) {
		if !mb.Holds(sb, p) {
			return propFormula(p), nil
		}
	}
	for _, p := range mb.Label(sb) {
		if !ma.Holds(sa, p) {
			return logic.Neg(propFormula(p)), nil
		}
	}
	for _, prop := range ex.opts.normalizedOneProps() {
		oa, ob := ma.ExactlyOne(sa, prop), mb.ExactlyOne(sb, prop)
		if oa && !ob {
			return logic.ExactlyOne(prop), nil
		}
		if ob && !oa {
			return logic.Neg(logic.ExactlyOne(prop)), nil
		}
	}
	return nil, fmt.Errorf("bisim: Explain: states %d and %d have distinct label classes but no discriminating literal", a, b)
}

// blockFormula returns the characterizing formula of node id: true at
// exactly the node's member states among all states of both structures.
func (ex *explainer) blockFormula(id int32) (logic.Formula, error) {
	nd := ex.nodes[id]
	if nd.formula != nil {
		return nd.formula, nil
	}
	var out logic.Formula
	switch nd.kind {
	case rootBlock:
		rep := int(ex.classes[nd.label])
		var lits []logic.Formula
		seen := map[string]bool{}
		for cls, other := range ex.classes {
			if int32(cls) == nd.label {
				continue
			}
			lit, err := ex.literal(rep, int(other))
			if err != nil {
				return nil, err
			}
			if key := logic.Key(lit); !seen[key] {
				seen[key] = true
				lits = append(lits, lit)
			}
		}
		out = logic.Conj(lits...)
	default:
		parent, err := ex.blockFormula(nd.parent)
		if err != nil {
			return nil, err
		}
		cond, err := ex.splitCondition(nd)
		if err != nil {
			return nil, err
		}
		if nd.kind == reachNeg || nd.kind == divNeg {
			cond = logic.Neg(cond)
		}
		out = logic.Conj(parent, cond)
	}
	nd.formula = out
	return out, nil
}

// splitCondition returns the (positive) condition of the split that created
// nd: E[Φ(parent) U Φ(splitter)] for a reach split, EG Φ(parent) for a
// divergence split.
func (ex *explainer) splitCondition(nd *enode) (logic.Formula, error) {
	parent, err := ex.blockFormula(nd.parent)
	if err != nil {
		return nil, err
	}
	switch nd.kind {
	case reachPos, reachNeg:
		spf, err := ex.blockFormula(nd.splitter)
		if err != nil {
			return nil, err
		}
		return logic.EU(parent, spf), nil
	case divPos, divNeg:
		return logic.EG(parent), nil
	default:
		return nil, fmt.Errorf("bisim: Explain: node %d has no split condition", nd.id)
	}
}

// ---------------------------------------------------------------------------
// Evidence assembly.
// ---------------------------------------------------------------------------

// explainInitial distinguishes the two initial states (which the caller has
// established to be unrelated).
func (ex *explainer) explainInitial(s, t kripke.State) (*Evidence, error) {
	us, ut := int(s), ex.n+int(t)
	ls, lt := ex.leafOf(us), ex.leafOf(ut)
	if ls == lt {
		return nil, fmt.Errorf("bisim: Explain: initial states reported unrelated but refinement left them together")
	}
	ev := &Evidence{
		Reason: ReasonInitial, Left: ex.m, Right: ex.m2,
		LeftState: s, RightState: t, GameLoop: -1,
	}
	// Find the split that separated the two leaves: the lowest common
	// ancestor of their provenance chains.
	anc := map[int32]bool{}
	for id := ls; id != -1; id = ex.nodes[id].parent {
		anc[id] = true
	}
	childT := lt
	for childT != -1 && !anc[ex.nodes[childT].parent] {
		childT = ex.nodes[childT].parent
	}
	if childT == -1 || ex.nodes[childT].parent == -1 {
		// Separated at the roots: the label classes differ.
		lit, err := ex.literal(us, ut)
		if err != nil {
			return nil, err
		}
		ev.Formula = lit
		ev.GamePath = []kripke.State{s}
		ev.GameSide = "left"
		return ev, nil
	}
	lca := ex.nodes[childT].parent
	childS := ls
	for ex.nodes[childS].parent != lca {
		childS = ex.nodes[childS].parent
	}
	nodeS, nodeT := ex.nodes[childS], ex.nodes[childT]
	cond, err := ex.splitCondition(nodeS)
	if err != nil {
		return nil, err
	}
	sPositive := nodeS.kind == reachPos || nodeS.kind == divPos
	if sPositive {
		ev.Formula = cond
		ev.GameSide = "left"
		ev.GamePath, ev.GameLoop = ex.gamePath(us, nodeS)
	} else {
		ev.Formula = logic.Neg(cond)
		ev.GameSide = "right"
		ev.GamePath, ev.GameLoop = ex.gamePath(ut, nodeT)
	}
	return ev, nil
}

// gamePath demonstrates the positive split condition of node nd starting
// from union state u (a member of nd, which must be a positive half): for a
// reach split, a stuttering path inside the parent block ending with one
// step into the splitter; for a divergence split, a lasso staying inside
// the parent block.  States are returned in the coordinate space of u's own
// structure.
func (ex *explainer) gamePath(u int, nd *enode) ([]kripke.State, int) {
	parent := ex.nodes[nd.parent]
	comp := ex.r.comp
	inParent := func(v int) bool { return parent.members.Get(int(comp[v])) }
	switch nd.kind {
	case reachPos:
		target := func(v int) bool { return ex.nodes[nd.splitter].members.Get(int(comp[v])) }
		path := ex.bfsPath(u, inParent, target)
		return ex.localize(path), -1
	case divPos:
		// Stem to a divergent contracted node inside the parent block, then
		// a loop inside that silent SCC.
		target := func(v int) bool { return ex.r.divMask.Get(int(comp[v])) && inParent(v) }
		stem := ex.bfsPath(u, inParent, target)
		if len(stem) == 0 {
			return nil, -1
		}
		entry := stem[len(stem)-1]
		loopStart := len(stem) - 1
		seenAt := map[int]int{entry: loopStart}
		cur := entry
		path := stem
		for {
			next := -1
			for _, v := range ex.unionSucc(cur) {
				if comp[v] == comp[entry] {
					next = v
					break
				}
			}
			if next == -1 {
				return ex.localize(path), -1 // self-contained divergence not walkable; keep the stem
			}
			if at, ok := seenAt[next]; ok {
				return ex.localize(path), at
			}
			seenAt[next] = len(path)
			path = append(path, next)
			cur = next
		}
	default:
		return ex.localize([]int{u}), -1
	}
}

// bfsPath returns a shortest path from u through "within" states to a state
// satisfying target (the last step may leave "within"); it includes u and
// the target state.  The start may itself satisfy target.
func (ex *explainer) bfsPath(u int, within, target func(int) bool) []int {
	if target(u) {
		return []int{u}
	}
	prev := map[int]int{u: -1}
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, v := range ex.unionSucc(x) {
			if _, ok := prev[v]; ok {
				continue
			}
			prev[v] = x
			if target(v) {
				var rev []int
				for w := v; w != -1; w = prev[w] {
					rev = append(rev, w)
				}
				out := make([]int, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			if within(v) {
				queue = append(queue, v)
			}
		}
	}
	return nil
}

// localize converts union states to the coordinates of their own structure
// (all states of one path lie on one side, since the union has no cross
// edges).
func (ex *explainer) localize(path []int) []kripke.State {
	out := make([]kripke.State, len(path))
	for i, u := range path {
		if u < ex.n {
			out[i] = kripke.State(u)
		} else {
			out[i] = kripke.State(u - ex.n)
		}
	}
	return out
}

// orphanLeft returns a left state related to nothing on the right,
// preferring reachable ones, mirroring the totality sweep of the engines.
func (ex *explainer) orphanLeft(res *Result, opts Options) (kripke.State, bool) {
	covered, _ := res.Relation.coverage()
	return firstUncovered(ex.m, opts, covered)
}

func (ex *explainer) orphanRight(res *Result, opts Options) (kripke.State, bool) {
	_, covered := res.Relation.coverage()
	return firstUncovered(ex.m2, opts, covered)
}

// firstUncovered returns the first state of m in scope missing from covered.
func firstUncovered(m *kripke.Structure, opts Options, covered kripke.BitSet) (kripke.State, bool) {
	orphan := kripke.NoState
	eachInScope(m, opts, func(s int) bool {
		if covered.Get(s) {
			return true
		}
		orphan = kripke.State(s)
		return false
	})
	return orphan, orphan != kripke.NoState
}

// explainOrphan builds evidence for a totality failure: the orphaned
// state's block formula is false at every state of the other structure, so
// EF of it separates the initial states whenever the orphan is reachable.
func (ex *explainer) explainOrphan(orphan kripke.State, left bool) (*Evidence, error) {
	var u int
	var own *kripke.Structure
	reason := ReasonTotalLeft
	if left {
		u, own = int(orphan), ex.m
	} else {
		u, own = ex.n+int(orphan), ex.m2
		reason = ReasonTotalRight
	}
	leaf := ex.leafOf(u)
	// Sanity: the orphan's leaf must contain no state of the other side.
	// One O(N) pass marks which components hold a state of that side.
	otherSide := kripke.NewBitSet(ex.r.cN)
	for w := 0; w < ex.n+ex.n2; w++ {
		if (w < ex.n) != left {
			otherSide.Set(int(ex.r.comp[w]))
		}
	}
	if ex.nodes[leaf].members.Intersects(otherSide) {
		return nil, fmt.Errorf("bisim: Explain: state %d of %s reported unmatched but its block spans both structures", orphan, own.Name())
	}
	phi, err := ex.blockFormula(leaf)
	if err != nil {
		return nil, err
	}
	ev := &Evidence{Reason: reason, Left: ex.m, Right: ex.m2, GameLoop: -1}
	// Path from the orphan side's initial state to the orphan.
	var init int
	if left {
		init = int(ex.m.Initial())
		ev.GameSide = "left"
	} else {
		init = ex.n + int(ex.m2.Initial())
		ev.GameSide = "right"
	}
	anyState := func(int) bool { return true }
	isOrphan := func(v int) bool { return v == u }
	stem := ex.bfsPath(init, anyState, isOrphan)
	if stem == nil {
		// The orphan is unreachable (possible only without ReachableOnly):
		// assert the block formula at the orphan itself.
		ev.GamePath = ex.localize([]int{u})
		if left {
			ev.Formula = phi
			ev.LeftState, ev.RightState = orphan, ex.m2.Initial()
		} else {
			ev.Formula = logic.Neg(phi)
			ev.LeftState, ev.RightState = ex.m.Initial(), orphan
		}
		return ev, nil
	}
	ev.GamePath = ex.localize(stem)
	ev.LeftState, ev.RightState = ex.m.Initial(), ex.m2.Initial()
	if left {
		ev.Formula = logic.EF(phi)
	} else {
		ev.Formula = logic.Neg(logic.EF(phi))
	}
	return ev, nil
}

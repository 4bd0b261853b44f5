// Package experiments regenerates every figure and table of the paper (and
// the reproduction's additional measurements) as programmatic tables.  The
// package is used three ways: the root-level benchmarks time each
// experiment, cmd/experiments prints the tables that EXPERIMENTS.md records,
// and the test suite asserts the qualitative shape of each result.
//
// The experiments are independent, so they execute on the worker-pool
// runner of runner.go, which also streams results as they complete and
// sweeps a topology's sizes through the correspondence engine
// (TopologySweep).
//
// Experiment identifiers follow DESIGN.md:
//
//	E1  Fig. 3.1   corresponding structures and their degrees
//	E2  Fig. 4.1   counting processes with unrestricted ICTL*
//	E3  Fig. 5.1   the two-process mutual exclusion state graph
//	E4  Section 5  invariants on M_r
//	E5  Section 5  the four properties on M_r
//	E6  Section 5 / Appendix   the correspondence claim (refutation of the
//	    two-process cutoff, verification of the three-process cutoff, local
//	    clause violations at rings of size 200 and 1000)
//	E7  the state-explosion table: direct model checking of M_r versus the
//	    parameterized route through the cutoff instance
//	E8  quotient minimization of the per-process reductions
//	E9  Section 6  the quantifier-nesting conjecture on free products
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
	"repro/internal/paperfig"
	"repro/internal/ring"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, converting every cell with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case time.Duration:
			row = append(row, v.Round(10*time.Microsecond).String())
		case bool:
			if v {
				row = append(row, "yes")
			} else {
				row = append(row, "no")
			}
		case float64:
			row = append(row, strconv.FormatFloat(v, 'g', 4, 64))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.Rows = append(t.Rows, row)
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		sb.WriteString("\n")
		for _, n := range t.Notes {
			sb.WriteString("- " + n + "\n")
		}
	}
	return sb.String()
}

// Text renders the table as aligned plain text.
func (t *Table) Text() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&sb, "  %-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("  note: " + n + "\n")
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// E1 — Fig. 3.1
// ---------------------------------------------------------------------------

// Fig31 reconstructs Fig. 3.1 and reports the minimal correspondence degrees
// of its distinguished state pairs.
func Fig31(ctx context.Context) (*Table, error) {
	left, right, err := paperfig.Fig31()
	if err != nil {
		return nil, err
	}
	res, err := bisim.Compute(ctx, left, right, bisim.Options{})
	if err != nil {
		return nil, err
	}
	names := paperfig.Fig31Names()
	t := &Table{
		ID:      "E1",
		Title:   "Fig. 3.1 — corresponding structures and their minimal degrees",
		Columns: []string{"pair", "related", "minimal degree", "paper"},
	}
	report := func(label string, s, s2 kripke.State, want string) {
		d, ok := res.Relation.Degree(s, s2)
		deg := "-"
		if ok {
			deg = strconv.Itoa(d)
		}
		t.AddRow(label, ok, deg, want)
	}
	report("s1 / s1''", names.S1, names.S1pp, "degree 0 (exact match)")
	report("s1 / s1'", names.S1, names.S1p, "degree 2 (two stutter steps)")
	report("s2 / s2''", names.S2, 3, "degree 0")
	t.AddRow("structures correspond", res.Corresponds(), "", "yes (Theorem 2 applies)")

	// Theorem 2 in action: a battery of CTL* (no nexttime) formulas agrees.
	formulas := []string{"AG (a -> AF b)", "AF b", "EG a", "A (a U b)", "E ((F a) & (F b))"}
	agree := true
	cl, cr := mc.New(left), mc.New(right)
	for _, text := range formulas {
		f := logic.MustParse(text)
		hl, err := cl.Holds(ctx, f)
		if err != nil {
			return nil, err
		}
		hr, err := cr.Holds(ctx, f)
		if err != nil {
			return nil, err
		}
		if hl != hr {
			agree = false
		}
	}
	t.AddRow("CTL*-X battery agrees", agree, fmt.Sprintf("%d formulas", len(formulas)), "must agree")
	return t, nil
}

// ---------------------------------------------------------------------------
// E2 — Fig. 4.1
// ---------------------------------------------------------------------------

// Fig41 evaluates the nested counting formulas of Fig. 4.1 on free products
// of 1..maxN processes, demonstrating that unrestricted ICTL* counts
// processes while restricted formulas do not (beyond the 1-process
// degeneracy).
func Fig41(ctx context.Context, maxN int) (*Table, error) {
	if maxN < 2 {
		maxN = 4
	}
	t := &Table{
		ID:    "E2",
		Title: "Fig. 4.1 — nested quantifiers count processes; restricted formulas do not",
		Columns: append([]string{"formula", "restricted?"}, func() []string {
			var cols []string
			for n := 1; n <= maxN; n++ {
				cols = append(cols, fmt.Sprintf("n=%d", n))
			}
			return cols
		}()...),
	}
	structures := make([]*kripke.Structure, maxN+1)
	for n := 1; n <= maxN; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := paperfig.Fig41(n)
		if err != nil {
			return nil, err
		}
		structures[n] = m
	}
	evaluate := func(f logic.Formula) ([]string, error) {
		cells := make([]string, 0, maxN)
		for n := 1; n <= maxN; n++ {
			holds, err := mc.New(structures[n]).Holds(ctx, f)
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprint(holds))
		}
		return cells, nil
	}
	for k := 1; k <= maxN; k++ {
		f := paperfig.Fig41CountingFormula(k)
		cells, err := evaluate(f)
		if err != nil {
			return nil, err
		}
		restricted := logic.IsRestricted(f)
		t.AddRow(append([]any{fmt.Sprintf("counting depth %d", k), restricted}, toAny(cells)...)...)
	}
	for _, f := range paperfig.Fig41RestrictedFormulas() {
		cells, err := evaluate(f)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]any{f.String(), logic.IsRestricted(f)}, toAny(cells)...)...)
	}
	t.Notes = append(t.Notes,
		"the depth-k counting formula holds exactly when the product has at least k processes, so it determines the process count",
		"every formula in the restricted fragment has a constant truth value across sizes (Theorem 5)")
	return t, nil
}

func toAny(cells []string) []any {
	out := make([]any, len(cells))
	for i, c := range cells {
		out[i] = c
	}
	return out
}

// ---------------------------------------------------------------------------
// E3 — Fig. 5.1
// ---------------------------------------------------------------------------

// Fig51 rebuilds the two-process mutual exclusion graph and reports its
// shape.
func Fig51(ctx context.Context) (*Table, error) {
	inst, err := paperfig.Fig51()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E3",
		Title:   "Fig. 5.1 — global state graph of the two-process ring",
		Columns: []string{"quantity", "measured", "paper"},
	}
	t.AddRow("states", inst.M.NumStates(), paperfig.Fig51ExpectedStates)
	t.AddRow("transitions", inst.M.NumTransitions(), paperfig.Fig51ExpectedTransitions)
	t.AddRow("initial state", inst.StateOf(inst.M.Initial()).String(), "P1 holds the token, both neutral")
	t.AddRow("deadlock states", len(inst.M.DeadlockStates()), 0)
	return t, nil
}

// ---------------------------------------------------------------------------
// E4 / E5 — Section 5 invariants and properties on M_r
// ---------------------------------------------------------------------------

// RingChecks verifies the Section 5 invariants and properties on every ring
// size from 2 to maxR.
func RingChecks(ctx context.Context, maxR int) (*Table, error) {
	if maxR < 2 {
		maxR = 5
	}
	t := &Table{
		ID:      "E4/E5",
		Title:   "Section 5 invariants and properties, checked directly on M_r",
		Columns: []string{"formula", "source"},
	}
	for r := 2; r <= maxR; r++ {
		t.Columns = append(t.Columns, fmt.Sprintf("M_%d", r))
	}
	checkers := map[int]*mc.Checker{}
	for r := 2; r <= maxR; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, _, err := family.BuildParallel(ctx, family.Ring(), r, 1)
		if err != nil {
			return nil, err
		}
		checkers[r] = mc.New(m)
	}
	all := append(ring.Invariants(), ring.Properties()...)
	for _, nf := range all {
		cells := []any{nf.Name, nf.Source}
		for r := 2; r <= maxR; r++ {
			holds, err := checkers[r].Holds(ctx, nf.Formula)
			if err != nil {
				return nil, err
			}
			cells = append(cells, holds)
		}
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes, "all invariants and properties hold on every size checked, matching the paper")
	return t, nil
}

// ---------------------------------------------------------------------------
// E6 — the correspondence claim
// ---------------------------------------------------------------------------

// CorrespondenceCutoff reports, for each small size, whether the indexed
// correspondence with larger rings exists (decided by the bisim engine) and
// how the distinguishing formula behaves.
func CorrespondenceCutoff(ctx context.Context, maxR int) (*Table, error) {
	if maxR < 4 {
		maxR = 5
	}
	t := &Table{
		ID:    "E6",
		Title: "Does M_small indexed-correspond to M_r?  (decision procedure verdicts)",
		Columns: []string{"small", "r", "indexed correspondence", "max degree",
			"distinguishing formula on M_small", "on M_r"},
	}
	chi := ring.DistinguishingFormula()
	rg := family.Ring()
	for _, small := range []int{2, ring.CutoffSize} {
		smallM, smallAction, err := instanceWithAction(ctx, rg, small)
		if err != nil {
			return nil, err
		}
		chiSmall, err := mc.New(smallM).Holds(ctx, chi)
		if err != nil {
			return nil, err
		}
		for r := small + 1; r <= maxR; r++ {
			largeM, largeAction, err := instanceWithAction(ctx, rg, r)
			if err != nil {
				return nil, err
			}
			res, err := family.DecideBuilt(ctx, rg, smallM, small, largeM, r, smallAction, largeAction, 0)
			if err != nil {
				return nil, err
			}
			chiLarge, err := mc.New(largeM).Holds(ctx, chi)
			if err != nil {
				return nil, err
			}
			t.AddRow(small, r, res.Corresponds(), res.MaxDegree(), chiSmall, chiLarge)
		}
	}
	t.Notes = append(t.Notes,
		"the paper claims the correspondence for small=2; the decision procedure refutes it and the restricted ICTL* formula ∨i EF(d_i ∧ E[d_i U (c_i ∧ ¬E[c_i U (t_i ∧ n_i)])]) separates M_2 from every larger ring",
		"with small=3 (the corrected cutoff) the correspondence holds for every size checked, so Theorem 5 transfers the Section 5 properties from M_3 to M_r")
	return t, nil
}

// LocalRefutation runs the Appendix relation (both variants) through the
// local clause checker at rings far beyond explicit construction.
func LocalRefutation(ctx context.Context, sizes []int, samplesPerSize int, seed int64) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{100, 1000}
	}
	if samplesPerSize <= 0 {
		samplesPerSize = 25
	}
	small, err := ring.Build(2)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E6b",
		Title: "Local clause checking of the Section 5 relation at large rings (no state graph built)",
		Columns: []string{"r", "relation variant", "states sampled", "pairs checked",
			"clause violations", "elapsed"},
	}
	rng := newSplitMix(uint64(seed))
	for _, r := range sizes {
		for _, variant := range []ring.RelationVariant{ring.PaperRelation, ring.CorrectedRelation} {
			lc, err := ring.NewLocalChecker(variant, small, r)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			pairs := 0
			violations := 0
			states, err := ring.SampleStates(ctx, r, samplesPerSize, func(n int) int { return int(rng.next() % uint64(n)) })
			if err != nil {
				return nil, err
			}
			for _, g := range states {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				default:
				}
				for _, pair := range []bisim.IndexPair{{I: 1, I2: 1}, {I: 2, I2: 2}, {I: 2, I2: r}} {
					pairs++
					violations += len(lc.CheckState(g, pair.I, pair.I2))
				}
			}
			t.AddRow(r, variant.String(), len(states), pairs, violations, time.Since(start))
		}
	}
	t.Notes = append(t.Notes,
		"a positive violation count machine-refutes the Appendix correspondence at that ring size without ever constructing its state graph (r·2^r states)")
	return t, nil
}

// splitMix is a tiny deterministic PRNG so the experiment tables are stable
// without importing math/rand in a package used by benchmarks.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// E7 — state explosion versus the parameterized route
// ---------------------------------------------------------------------------

// StateExplosion compares direct model checking of the four properties on
// M_r against the parameterized route (model check the cutoff instance once;
// establish the correspondence).  The direct route's cost grows as r·2^r;
// the parameterized route's cost is independent of r once the correspondence
// is established.
func StateExplosion(ctx context.Context, maxR int) (*Table, error) {
	if maxR < 4 {
		maxR = 8
	}
	t := &Table{
		ID:    "E7",
		Title: "State explosion: direct model checking of M_r vs the parameterized route",
		Columns: []string{"r", "states", "transitions", "direct MC (4 properties)",
			"correspondence M_3~M_r", "all properties hold"},
	}
	props := ring.Properties()
	rg := family.Ring()
	cutoff, cutoffAction, err := instanceWithAction(ctx, rg, ring.CutoffSize)
	if err != nil {
		return nil, err
	}
	for r := 2; r <= maxR; r++ {
		m, action, err := instanceWithAction(ctx, rg, r)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		// The direct-MC column is the brute-force baseline the parameterized
		// route is measured against, so let it use everything the host has:
		// the word-at-a-time engines are byte-identical at every worker
		// count, and on a single CPU SetWorkers degrades to the sequential
		// path.
		checker := mc.New(m).SetWorkers(runtime.GOMAXPROCS(0))
		allHold := true
		for _, p := range props {
			holds, err := checker.Holds(ctx, p.Formula)
			if err != nil {
				return nil, err
			}
			allHold = allHold && holds
		}
		directElapsed := time.Since(start)

		corrCell := "n/a (cutoff not reached)"
		if r >= ring.CutoffSize {
			corrStart := time.Now()
			res, err := family.DecideBuilt(ctx, rg, cutoff, ring.CutoffSize, m, r, cutoffAction, action, 0)
			if err != nil {
				return nil, err
			}
			corrCell = fmt.Sprintf("%v (%s)", res.Corresponds(), time.Since(corrStart).Round(10*time.Microsecond))
		}
		t.AddRow(r, m.NumStates(), m.NumTransitions(), directElapsed, corrCell, allHold)
	}
	t.Notes = append(t.Notes,
		"the direct column grows with r·2^r and becomes infeasible around r≈20; the parameterized route checks the four properties once on M_3 (8·3=24 states) and transfers them by Theorem 5",
		"for r beyond explicit construction the transfer rests on the cutoff correspondence, which the decision procedure establishes for every size it can reach")
	return t, nil
}

// ---------------------------------------------------------------------------
// E8 — quotient minimization
// ---------------------------------------------------------------------------

// Minimization quotients the per-process reductions M_r|i by the maximal
// self-correspondence and reports the reduction factors — the "collapse a
// large machine into a much smaller one" idea the related-work section
// attributes to Kurshan, realised with the paper's own equivalence.
//
// The number of equivalence classes stabilises as r grows (that is exactly
// why a small cutoff instance can represent the whole family).  Whether the
// classes can also be folded into a *single* smaller Kripke structure is a
// separate question: the paper's degree-bounded relation is not always
// closed under the naive quotient construction (a class whose members offer
// different immediate exits cannot be collapsed into one state with all
// exits), and Minimize verifies its output and refuses in that case.  The
// table reports both the class count (always meaningful) and the verified
// quotient when one exists.
func Minimization(ctx context.Context, maxR int) (*Table, error) {
	if maxR < 3 {
		maxR = 6
	}
	t := &Table{
		ID:      "E8",
		Title:   "Equivalence classes and quotients of the process-i reduction M_r|i",
		Columns: []string{"r", "observed process", "states of M_r|i", "equivalence classes", "verified quotient states", "note"},
	}
	opts := bisim.Options{OneProps: []string{ring.PropToken}}
	for r := 2; r <= maxR; r++ {
		m, _, err := family.BuildParallel(ctx, family.Ring(), r, 1)
		if err != nil {
			return nil, err
		}
		for _, i := range []int{1, 2} {
			if i > r {
				continue
			}
			red := m.ReduceNormalized(i)
			classes, err := equivalenceClassCount(ctx, red, opts)
			if err != nil {
				return nil, err
			}
			res, err := bisim.Minimize(ctx, red, opts)
			if err != nil {
				t.AddRow(r, i, red.NumStates(), classes, "-", "quotient refused: the degree-bounded relation is not closed under state fusion here")
				continue
			}
			t.AddRow(r, i, red.NumStates(), classes, res.Quotient.NumStates(), "quotient verified against the original")
		}
	}
	t.Notes = append(t.Notes,
		"the class count grows far more slowly than the state count r·2^r, which is the quantitative heart of the parameterized method",
		"rows marked 'quotient refused' document a subtlety of the paper's degree-bounded relation: unlike branching bisimulation it is not always a congruence for state fusion, so Minimize keeps the original structure")
	return t, nil
}

// equivalenceClassCount returns the number of classes of the maximal
// self-correspondence of m (connected components of the relation).
func equivalenceClassCount(ctx context.Context, m *kripke.Structure, opts bisim.Options) (int, error) {
	res, err := bisim.Compute(ctx, m, m, opts)
	if err != nil {
		return 0, err
	}
	n := m.NumStates()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range res.Relation.Pairs() {
		a, b := find(int(p.S)), find(int(p.T))
		if a != b {
			parent[a] = b
		}
	}
	roots := map[int]bool{}
	for s := 0; s < n; s++ {
		roots[find(s)] = true
	}
	return len(roots), nil
}

// ---------------------------------------------------------------------------
// E9 — the Section 6 nesting conjecture on free products
// ---------------------------------------------------------------------------

// NestingConjecture explores the paper's closing conjecture: a formula with
// at most k levels of indexed quantifiers cannot distinguish free products
// with more than k identical processes.  For the Fig. 4.1 template the
// depth-k counting formula changes truth value exactly at n = k, in line
// with the conjecture's bound.
func NestingConjecture(ctx context.Context, maxK int) (*Table, error) {
	if maxK < 2 {
		maxK = 4
	}
	t := &Table{
		ID:      "E9",
		Title:   "Section 6 conjecture: nesting depth k vs number of processes (free products of the Fig. 4.1 template)",
		Columns: []string{"nesting depth k", "first n where the formula holds", "holds for all larger n checked", "consistent with conjecture"},
	}
	maxN := maxK + 3
	structures := make([]*kripke.Structure, maxN+1)
	for n := 1; n <= maxN; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := paperfig.Fig41(n)
		if err != nil {
			return nil, err
		}
		structures[n] = m
	}
	for k := 1; k <= maxK; k++ {
		f := paperfig.Fig41CountingFormula(k)
		first := -1
		allLarger := true
		for n := 1; n <= maxN; n++ {
			holds, err := mc.New(structures[n]).Holds(ctx, f)
			if err != nil {
				return nil, err
			}
			if holds && first < 0 {
				first = n
			}
			if first > 0 && n >= first && !holds {
				allLarger = false
			}
		}
		consistent := first == k && allLarger
		t.AddRow(k, first, allLarger, consistent)
	}
	t.Notes = append(t.Notes,
		"the depth-k formula first becomes true at n = k and stays true, i.e. it distinguishes sizes below k but not above — matching the conjecture that k quantifier levels cannot see past k processes")
	return t, nil
}

// All and the worker-pool runner behind it live in runner.go.

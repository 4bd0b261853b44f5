// Package paperfig reconstructs the paper's three figures as executable
// artifacts so the test suite and the experiment harness can refer to them
// by name:
//
//   - Fig. 3.1: a pair of corresponding structures in which one state of the
//     second structure exactly matches a state of the first (degree 0) while
//     another needs two stuttering transitions to reach an exact match
//     (degree 2);
//   - Fig. 4.1: the family of concurrent programs used to show that
//     *unrestricted* ICTL* can count processes (proposition A holds until a
//     process takes its step, after which B holds forever), together with
//     the nested counting formulas;
//   - Fig. 5.1: the global state graph of the two-process mutual exclusion
//     ring (provided by package ring; re-exported here with the state/
//     transition counts the figure shows).
//
// The printed figures are small drawings; their exact node identities are
// not recoverable from the text, so Fig31 builds structures that realise the
// figure's stated properties (the degrees 0 and 2 discussed under the
// figure) rather than a pixel-faithful copy.  The properties themselves are
// asserted by tests.
package paperfig

import (
	"context"
	"fmt"

	"repro/internal/explore"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/process"
	"repro/internal/ring"
)

// Fig31 returns the two structures of Fig. 3.1.  In the first structure a
// two-state cycle alternates between labels {a} and {b}; the second
// structure prefixes the same cycle with two stuttering {a} states.  The
// states are arranged so that
//
//	s1  (state 0 of the first structure)  exactly matches
//	s1'' (state 2 of the second structure)            — degree 0, and
//	s1' (state 0 of the second structure) reaches an exact match with s1
//	after two transitions                              — degree 2,
//
// which is exactly the situation described under the figure.
func Fig31() (m, m2 *kripke.Structure, err error) {
	b := kripke.NewBuilder("fig3.1-left")
	s1 := b.AddState(kripke.P("a"))
	s2 := b.AddState(kripke.P("b"))
	if err := firstErr(
		b.AddTransition(s1, s2),
		b.AddTransition(s2, s1),
		b.SetInitial(s1),
	); err != nil {
		return nil, nil, err
	}
	left, err := b.Build()
	if err != nil {
		return nil, nil, err
	}

	b2 := kripke.NewBuilder("fig3.1-right")
	s1p := b2.AddState(kripke.P("a"))  // s1'
	mid := b2.AddState(kripke.P("a"))  // intermediate stutter state
	s1pp := b2.AddState(kripke.P("a")) // s1''
	s2pp := b2.AddState(kripke.P("b")) // s2''
	if err := firstErr(
		b2.AddTransition(s1p, mid),
		b2.AddTransition(mid, s1pp),
		b2.AddTransition(s1pp, s2pp),
		b2.AddTransition(s2pp, s1pp),
		b2.SetInitial(s1p),
	); err != nil {
		return nil, nil, err
	}
	right, err := b2.Build()
	if err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// Fig31States names the interesting states of the Fig31 structures.
type Fig31States struct {
	S1   kripke.State // state s1 of the left structure
	S2   kripke.State // state s2 of the left structure
	S1p  kripke.State // state s1' of the right structure
	S1pp kripke.State // state s1'' of the right structure
}

// Fig31Names returns the distinguished states of the Fig31 structures.
func Fig31Names() Fig31States {
	return Fig31States{S1: 0, S2: 1, S1p: 0, S1pp: 2}
}

// Fig41PropA and Fig41PropB are the indexed propositions of Fig. 4.1.  The
// paper writes them A_i and B_i; they are lower-cased here because single
// capital letters are reserved operator names in the concrete formula
// syntax.
const (
	Fig41PropA = "a"
	Fig41PropB = "b"
)

// Fig41Template returns the two-local-state process of Fig. 4.1: initially
// the process satisfies A; it may take one step after which it satisfies B
// forever ("once B_i becomes true, it remains true").
func Fig41Template() *process.Template {
	return &process.Template{
		Name:    "fig4.1",
		States:  []string{"a", "b"},
		Initial: "a",
		Labels: map[string][]string{
			"a": {Fig41PropA},
			"b": {Fig41PropB},
		},
	}
}

// Fig41 builds the global structure of Fig. 4.1 for n processes: the free
// (unsynchronised) product of n copies of the template, made total by a self
// loop on the all-B state.
func Fig41(n int) (*kripke.Structure, error) {
	if n < 1 {
		return nil, fmt.Errorf("paperfig: Fig41 needs at least one process, got %d", n)
	}
	net, err := process.FreeProduct(Fig41Template(), [][2]string{{"a", "b"}}, n)
	if err != nil {
		return nil, err
	}
	def, _, err := net.Def(fmt.Sprintf("fig4.1[%d]", n))
	if err != nil {
		return nil, err
	}
	m, _, err := explore.Build(context.Background(), def, explore.Options{Workers: 1, MaxStates: process.DefaultMaxStates})
	if err != nil {
		return nil, err
	}
	// The all-B state has no successor in the free product; CTL* semantics
	// needs a total relation, and the figure's program simply stays there.
	return m.MakeTotal(), nil
}

// Fig41CountingFormula returns the nested ICTL* formula of depth k that the
// paper uses to set a lower bound on the number of processes:
//
//	depth 1:  ∨i A_i
//	depth k:  ∨i (A_i ∧ EF(B_i ∧ counting formula of depth k-1))
//
// Because a process that has made B true can never satisfy A again, each
// nested disjunction must be witnessed by a fresh process, so the formula
// holds exactly in products of at least k processes.  The formula violates
// the nesting restriction of Section 4 for k ≥ 2 (which is the figure's
// point); logic.CheckRestricted reports that.
func Fig41CountingFormula(k int) logic.Formula {
	if k <= 1 {
		return logic.ExistsIdx("i1", logic.IdxProp(Fig41PropA, "i1"))
	}
	inner := Fig41CountingFormula(k - 1)
	v := fmt.Sprintf("i%d", k)
	return logic.ExistsIdx(v, logic.Conj(
		logic.IdxProp(Fig41PropA, v),
		logic.EF(logic.Conj(logic.IdxProp(Fig41PropB, v), inner)),
	))
}

// Fig41RestrictedFormulas returns a battery of *restricted* ICTL* formulas
// over the Fig. 4.1 vocabulary.  By Theorem 5 their truth cannot depend on
// the number of processes (beyond trivial size-one degeneracies); the
// experiment harness evaluates them on increasing sizes to demonstrate that.
func Fig41RestrictedFormulas() []logic.Formula {
	return []logic.Formula{
		logic.MustParse("exists i . a[i]"),
		logic.MustParse("exists i . EF b[i]"),
		logic.MustParse("forall i . AF b[i]"),
		logic.MustParse("forall i . AG(b[i] -> AG b[i])"),
		logic.MustParse("exists i . E[a[i] U b[i]]"),
		logic.MustParse("forall i . AG(a[i] | b[i])"),
	}
}

// Fig51 builds the two-process mutual exclusion instance of Fig. 5.1.
func Fig51() (*ring.Instance, error) { return ring.Build(2) }

// Fig51ExpectedStates is the number of global states in Fig. 5.1's graph:
// the token holder (2 choices) is in T or C (2 choices) and the other
// process is in N or D (2 choices).
const Fig51ExpectedStates = 8

// Fig51ExpectedTransitions is the number of edges in Fig. 5.1's graph,
// obtained by summing the enabled rules over the eight states (the test
// suite re-derives it from the transition rules).
const Fig51ExpectedTransitions = 14

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

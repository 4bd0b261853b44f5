// Package process is the substrate for building families of networks of
// identical finite-state processes, the objects the paper reasons about.
//
// A Template describes one finite-state process: its local states, its
// initial local state and the indexed atomic propositions emitted in each
// local state.  A Network instantiates N copies of the template (numbered
// 1..N, as in the paper), optionally adds shared variables (e.g. "which
// process holds the token"), and composes them with guarded-command Rules.
// Network.Def describes the reachable global state space to
// internal/explore, the one explorer, whose breadth-first build produces
// the global Kripke structure whose states are labelled with the indexed
// propositions of every process, exactly the kind of structure Sections 4
// and 5 of the paper analyse.  A global state is one 64-bit code when it
// fits a word and an interned multi-word code otherwise (see def.go).
//
// The package is deliberately explicit-state: the point of the paper is that
// one never needs to build the large instances, because the correspondence
// theorem lets the small instance answer for all of them.
package process

import "fmt"

// DefaultMaxStates is the explicit-construction budget of a network build
// that sets none: exceeding it means the caller asked for an instance the
// correspondence theorem should answer for instead.
const DefaultMaxStates = 1_000_000

// Template describes one finite-state process of a family.
type Template struct {
	// Name identifies the template (used in structure names).
	Name string
	// States lists the local state names.
	States []string
	// Initial is the initial local state; it must appear in States.
	Initial string
	// Labels maps a local state to the indexed proposition names emitted by
	// a process in that state.  A process i in local state ls satisfies
	// prop[i] for every prop in Labels[ls].
	Labels map[string][]string
}

// Validate checks the template's internal consistency.
func (t *Template) Validate() error {
	if t == nil {
		return fmt.Errorf("process: nil template")
	}
	if len(t.States) == 0 {
		return fmt.Errorf("process: template %q has no states", t.Name)
	}
	seen := map[string]bool{}
	for _, s := range t.States {
		if s == "" {
			return fmt.Errorf("process: template %q has an empty state name", t.Name)
		}
		if seen[s] {
			return fmt.Errorf("process: template %q declares state %q twice", t.Name, s)
		}
		seen[s] = true
	}
	if !seen[t.Initial] {
		return fmt.Errorf("process: template %q: initial state %q is not declared", t.Name, t.Initial)
	}
	for ls := range t.Labels {
		if !seen[ls] {
			return fmt.Errorf("process: template %q labels unknown state %q", t.Name, ls)
		}
	}
	return nil
}

func (t *Template) stateIndex(name string) (int, error) {
	for i, s := range t.States {
		if s == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("process: template %q has no state %q", t.Name, name)
}

// SharedVar declares a bounded shared integer variable of the network.
type SharedVar struct {
	Name    string
	Initial int
	// Max, when positive, declares an inclusive upper bound on the values
	// the variable takes (values must stay in [0, Max]) and stores the
	// variable in bitsFor(Max) bits of the state code; a rule that drives a
	// bounded variable outside its range makes the exploration fail.  Zero
	// leaves the variable unbounded: it takes a full 64-bit field, so the
	// network's codes are interned (see Network.Def).
	Max int
}

// Update describes the effect of firing a rule: new local states for some
// processes (by process number) and new values for some shared variables.
// Processes and variables not mentioned keep their values.
type Update struct {
	Locals map[int]string
	Shared map[string]int
}

// Rule is a guarded command instantiated for every process i in 1..N.
// When Guard(view, i) holds, the rule can fire for process i, producing the
// update Apply(view, i).  Each firing is one global transition of the
// network (interleaving semantics).
type Rule struct {
	Name  string
	Guard func(v View, i int) bool
	Apply func(v View, i int) Update
}

// GlobalRule is a guarded command that is not attached to a particular
// process (for example "the environment resets the bus").  When Guard holds
// it can fire, producing Apply's update.
type GlobalRule struct {
	Name  string
	Guard func(v View) bool
	Apply func(v View) Update
}

// Network is a family member: N identical processes plus shared variables
// and rules.
type Network struct {
	Template *Template
	N        int
	Shared   []SharedVar
	Rules    []Rule
	Globals  []GlobalRule
	// GlobalProps, when non-nil, adds plain (non-indexed) propositions to
	// each global state.
	GlobalProps func(v View) []string
	// InitialLocal, when non-nil, overrides the template's initial state per
	// process (e.g. "process 1 starts with the token").
	InitialLocal func(i int) string
}

// Validate checks the network definition.
func (n *Network) Validate() error {
	if err := n.Template.Validate(); err != nil {
		return err
	}
	if n.N <= 0 {
		return fmt.Errorf("process: network must have at least one process, got %d", n.N)
	}
	names := map[string]bool{}
	for _, v := range n.Shared {
		if v.Name == "" {
			return fmt.Errorf("process: shared variable with empty name")
		}
		if names[v.Name] {
			return fmt.Errorf("process: shared variable %q declared twice", v.Name)
		}
		names[v.Name] = true
	}
	for _, r := range n.Rules {
		if r.Guard == nil || r.Apply == nil {
			return fmt.Errorf("process: rule %q must have both a guard and an apply function", r.Name)
		}
	}
	for _, r := range n.Globals {
		if r.Guard == nil || r.Apply == nil {
			return fmt.Errorf("process: global rule %q must have both a guard and an apply function", r.Name)
		}
	}
	if n.InitialLocal != nil {
		for i := 1; i <= n.N; i++ {
			if _, err := n.Template.stateIndex(n.InitialLocal(i)); err != nil {
				return fmt.Errorf("process: InitialLocal(%d): %w", i, err)
			}
		}
	}
	return nil
}

// View is a read-only snapshot of a global state.
type View struct {
	net    *Network
	locals []int // local state index per process (0-based slot for process i at i-1)
	shared []int
}

// NumProcesses returns the number of processes in the network.
func (v View) NumProcesses() int { return v.net.N }

// Local returns the local state name of process i (1-based).
func (v View) Local(i int) string { return v.net.Template.States[v.locals[i-1]] }

// Shared returns the value of the named shared variable (0 if undeclared).
func (v View) Shared(name string) int {
	for idx, sv := range v.net.Shared {
		if sv.Name == name {
			return v.shared[idx]
		}
	}
	return 0
}

// CountLocal returns how many processes are in the named local state.
func (v View) CountLocal(state string) int {
	idx, err := v.net.Template.stateIndex(state)
	if err != nil {
		return 0
	}
	count := 0
	for _, ls := range v.locals {
		if ls == idx {
			count++
		}
	}
	return count
}

// ProcessesIn returns the (1-based) process numbers currently in the named
// local state, in increasing order.
func (v View) ProcessesIn(state string) []int {
	idx, err := v.net.Template.stateIndex(state)
	if err != nil {
		return nil
	}
	var out []int
	for p, ls := range v.locals {
		if ls == idx {
			out = append(out, p+1)
		}
	}
	return out
}

func (v View) apply(u Update) (View, error) {
	out := View{net: v.net,
		locals: append([]int(nil), v.locals...),
		shared: append([]int(nil), v.shared...),
	}
	for p, ls := range u.Locals {
		if p < 1 || p > v.net.N {
			return View{}, fmt.Errorf("process: update names process %d outside 1..%d", p, v.net.N)
		}
		idx, err := v.net.Template.stateIndex(ls)
		if err != nil {
			return View{}, err
		}
		out.locals[p-1] = idx
	}
	for name, val := range u.Shared {
		found := false
		for idx, sv := range v.net.Shared {
			if sv.Name == name {
				out.shared[idx] = val
				found = true
				break
			}
		}
		if !found {
			return View{}, fmt.Errorf("process: update names undeclared shared variable %q", name)
		}
	}
	return out, nil
}

func (n *Network) initialView() (View, error) {
	locals := make([]int, n.N)
	for i := 1; i <= n.N; i++ {
		name := n.Template.Initial
		if n.InitialLocal != nil {
			name = n.InitialLocal(i)
		}
		idx, err := n.Template.stateIndex(name)
		if err != nil {
			return View{}, err
		}
		locals[i-1] = idx
	}
	shared := make([]int, len(n.Shared))
	for i, sv := range n.Shared {
		shared[i] = sv.Initial
	}
	return View{net: n, locals: locals, shared: shared}, nil
}

func (n *Network) successors(v View) ([]View, error) {
	var out []View
	for _, r := range n.Rules {
		for i := 1; i <= n.N; i++ {
			if !r.Guard(v, i) {
				continue
			}
			next, err := v.apply(r.Apply(v, i))
			if err != nil {
				return nil, fmt.Errorf("process: rule %q for process %d: %w", r.Name, i, err)
			}
			out = append(out, next)
		}
	}
	for _, r := range n.Globals {
		if !r.Guard(v) {
			continue
		}
		next, err := v.apply(r.Apply(v))
		if err != nil {
			return nil, fmt.Errorf("process: global rule %q: %w", r.Name, err)
		}
		out = append(out, next)
	}
	return out, nil
}

// FreeProduct returns a network of N copies of the template with no shared
// variables and no synchronisation: every process may always take any of its
// template transitions independently.  The transitions argument lists the
// template's local transitions as (from, to) pairs.  Free products are the
// setting of the paper's Section 6 conjecture about quantifier nesting
// depth, which the experiment harness explores.
func FreeProduct(t *Template, transitions [][2]string, n int) (*Network, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	type edge struct{ from, to string }
	edges := make([]edge, 0, len(transitions))
	for _, tr := range transitions {
		if _, err := t.stateIndex(tr[0]); err != nil {
			return nil, err
		}
		if _, err := t.stateIndex(tr[1]); err != nil {
			return nil, err
		}
		edges = append(edges, edge{tr[0], tr[1]})
	}
	rules := make([]Rule, 0, len(edges))
	for _, e := range edges {
		e := e
		rules = append(rules, Rule{
			Name:  fmt.Sprintf("%s->%s", e.from, e.to),
			Guard: func(v View, i int) bool { return v.Local(i) == e.from },
			Apply: func(v View, i int) Update {
				return Update{Locals: map[int]string{i: e.to}}
			},
		})
	}
	return &Network{Template: t, N: n, Rules: rules}, nil
}

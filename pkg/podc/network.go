package podc

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/explore"
	"repro/internal/process"
)

// This file exposes the substrate for building families of networks of
// identical finite-state processes: describe one process as a
// ProcessTemplate, compose N copies with guarded-command rules in a
// Network, and build the global Kripke structure.  It is how new families
// beyond the token ring (see examples/resourcepool) enter the methodology.

// ProcessTemplate describes one finite-state process of a family.
type ProcessTemplate struct {
	// Name identifies the template (used in structure names).
	Name string
	// States lists the local state names.
	States []string
	// Initial is the initial local state; it must appear in States.
	Initial string
	// Labels maps a local state to the indexed proposition names emitted
	// by a process in that state: a process i in local state ls satisfies
	// prop[i] for every prop in Labels[ls].
	Labels map[string][]string
}

func (t *ProcessTemplate) raw() *process.Template {
	if t == nil {
		return nil
	}
	return &process.Template{
		Name:    t.Name,
		States:  t.States,
		Initial: t.Initial,
		Labels:  t.Labels,
	}
}

// NetworkView is a read-only snapshot of a global network state, passed to
// rule guards and updates.
type NetworkView struct {
	v process.View
}

// Local returns the local state of process i (1-based).
func (v NetworkView) Local(i int) string { return v.v.Local(i) }

// CountLocal returns how many processes are in the given local state.
func (v NetworkView) CountLocal(state string) int { return v.v.CountLocal(state) }

// NumProcesses returns the network size N.
func (v NetworkView) NumProcesses() int { return v.v.NumProcesses() }

// ProcessesIn returns the (1-based) processes in the given local state.
func (v NetworkView) ProcessesIn(state string) []int { return v.v.ProcessesIn(state) }

// Shared returns the value of a shared variable.
func (v NetworkView) Shared(name string) int { return v.v.Shared(name) }

// NetworkUpdate describes the effect of firing a rule: new local states for
// some processes (by process number) and new values for some shared
// variables; everything not mentioned keeps its value.
type NetworkUpdate struct {
	Locals map[int]string
	Shared map[string]int
}

func (u NetworkUpdate) raw() process.Update {
	return process.Update{Locals: u.Locals, Shared: u.Shared}
}

// NetworkRule is a guarded command instantiated for every process i in
// 1..N: when Guard(view, i) holds the rule can fire for process i,
// producing Apply's update.  Each firing is one global transition
// (interleaving semantics).
type NetworkRule struct {
	Name  string
	Guard func(v NetworkView, i int) bool
	Apply func(v NetworkView, i int) NetworkUpdate
}

// GlobalNetworkRule is a guarded command not attached to a particular
// process (e.g. "the environment resets the bus").
type GlobalNetworkRule struct {
	Name  string
	Guard func(v NetworkView) bool
	Apply func(v NetworkView) NetworkUpdate
}

// SharedVariable declares a bounded shared integer variable of the network.
type SharedVariable struct {
	Name    string
	Initial int
	// Max, when positive, declares an inclusive upper bound on the values
	// the variable takes (values must stay in [0, Max]) and packs the
	// variable into the bits Max needs in the global state's code; a rule
	// that drives a bounded variable outside its range makes Build fail.
	// Zero leaves the variable unbounded: it takes a full 64-bit field, so
	// its values may be negative and the network's codes are interned
	// instead of packed into one word.
	Max int
}

// Network is a family member: N identical processes plus shared variables
// and rules.
type Network struct {
	Template *ProcessTemplate
	N        int
	Shared   []SharedVariable
	Rules    []NetworkRule
	Globals  []GlobalNetworkRule
	// GlobalProps, when non-nil, adds plain (non-indexed) propositions to
	// each global state.
	GlobalProps func(v NetworkView) []string
	// InitialLocal, when non-nil, overrides the template's initial state
	// per process (e.g. "process 1 starts with the token").
	InitialLocal func(i int) string
	// MaxStates caps the number of reachable global states generated; 0
	// means the default of 1,000,000.  Exceeding the cap is an error: the
	// caller asked for an instance too large to build explicitly.
	MaxStates int
}

func (n *Network) raw() *process.Network {
	net := &process.Network{
		Template: n.Template.raw(),
		N:        n.N,
	}
	for _, sv := range n.Shared {
		net.Shared = append(net.Shared, process.SharedVar{Name: sv.Name, Initial: sv.Initial, Max: sv.Max})
	}
	for _, r := range n.Rules {
		r := r
		net.Rules = append(net.Rules, process.Rule{
			Name:  r.Name,
			Guard: func(v process.View, i int) bool { return r.Guard(NetworkView{v: v}, i) },
			Apply: func(v process.View, i int) process.Update { return r.Apply(NetworkView{v: v}, i).raw() },
		})
	}
	for _, g := range n.Globals {
		g := g
		net.Globals = append(net.Globals, process.GlobalRule{
			Name:  g.Name,
			Guard: func(v process.View) bool { return g.Guard(NetworkView{v: v}) },
			Apply: func(v process.View) process.Update { return g.Apply(NetworkView{v: v}).raw() },
		})
	}
	if n.GlobalProps != nil {
		gp := n.GlobalProps
		net.GlobalProps = func(v process.View) []string { return gp(NetworkView{v: v}) }
	}
	net.InitialLocal = n.InitialLocal
	return net
}

// Build explores the reachable global state space breadth-first and
// returns the network's Kripke structure, labelled with the indexed
// propositions of every process.  A non-empty name overrides the generated
// structure name.  The exploration runs on one goroutine, so rules need
// not be pure functions of the view, and polls ctx between states: a
// cancelled or expired context stops it with the context's error.  A
// network past MaxStates is refused with an error naming the state limit.
func (n *Network) Build(ctx context.Context, name string) (*Structure, error) {
	if n == nil || n.Template == nil {
		return nil, fmt.Errorf("podc: Network.Build: nil network or template")
	}
	def, _, err := n.raw().Def(name)
	if err != nil {
		return nil, err
	}
	limit := n.MaxStates
	if limit <= 0 {
		limit = process.DefaultMaxStates
	}
	m, _, err := explore.Build(ctx, def, explore.Options{Workers: 1, MaxStates: limit})
	if errors.Is(err, explore.ErrLimit) {
		return nil, fmt.Errorf("podc: network %s exceeds the %d state limit (%w); "+
			"build a small instance and use the correspondence theorem instead", def.Name, limit, explore.ErrLimit)
	}
	if err != nil {
		return nil, err
	}
	return wrapStructure(m), nil
}

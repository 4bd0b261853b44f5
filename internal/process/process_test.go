package process

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/kripke"
)

func tokenRingTemplate() *Template {
	return &Template{
		Name:    "mutex",
		States:  []string{"n", "d", "t", "c"},
		Initial: "n",
		Labels: map[string][]string{
			"n": {"n"},
			"d": {"d"},
			"t": {"n", "t"},
			"c": {"c", "t"},
		},
	}
}

// tokenRingNetwork reproduces the paper's Section 5 system with the generic
// rule-based composition; the ring package builds the same system directly
// from the paper's definition, and an integration test in the ring package
// cross-validates the two constructions.
func tokenRingNetwork(r int) *Network {
	cln := func(v View, j int) int {
		best, bestDist := 0, v.NumProcesses()+1
		for i := 1; i <= v.NumProcesses(); i++ {
			if i == j || v.Local(i) != "d" {
				continue
			}
			dist := ((j-i)%v.NumProcesses() + v.NumProcesses()) % v.NumProcesses()
			if dist < bestDist {
				best, bestDist = i, dist
			}
		}
		return best
	}
	return &Network{
		Template: tokenRingTemplate(),
		N:        r,
		InitialLocal: func(i int) string {
			if i == 1 {
				return "t"
			}
			return "n"
		},
		Rules: []Rule{
			{
				Name:  "request",
				Guard: func(v View, i int) bool { return v.Local(i) == "n" },
				Apply: func(v View, i int) Update { return Update{Locals: map[int]string{i: "d"}} },
			},
			{
				Name:  "enter-critical",
				Guard: func(v View, i int) bool { return v.Local(i) == "t" },
				Apply: func(v View, i int) Update { return Update{Locals: map[int]string{i: "c"}} },
			},
			{
				Name: "transfer",
				Guard: func(v View, i int) bool {
					return (v.Local(i) == "t" || v.Local(i) == "c") && cln(v, i) != 0
				},
				Apply: func(v View, i int) Update {
					return Update{Locals: map[int]string{i: "n", cln(v, i): "c"}}
				},
			},
			{
				Name: "exit-critical",
				Guard: func(v View, i int) bool {
					return v.Local(i) == "c" && v.CountLocal("d") == 0
				},
				Apply: func(v View, i int) Update { return Update{Locals: map[int]string{i: "t"}} },
			},
		},
	}
}

func TestTemplateValidate(t *testing.T) {
	good := tokenRingTemplate()
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Template)
	}{
		{"no states", func(tp *Template) { tp.States = nil }},
		{"empty state name", func(tp *Template) { tp.States = []string{""} }},
		{"duplicate state", func(tp *Template) { tp.States = []string{"n", "n"} }},
		{"bad initial", func(tp *Template) { tp.Initial = "zzz" }},
		{"label on unknown state", func(tp *Template) { tp.Labels = map[string][]string{"zzz": {"p"}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := tokenRingTemplate()
			tc.mut(tp)
			if err := tp.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
	var nilTemplate *Template
	if err := nilTemplate.Validate(); err == nil {
		t.Error("nil template should fail validation")
	}
}

func TestNetworkValidate(t *testing.T) {
	net := tokenRingNetwork(2)
	if err := net.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := tokenRingNetwork(0)
	if err := bad.Validate(); err == nil {
		t.Error("zero processes should fail")
	}
	badRule := tokenRingNetwork(2)
	badRule.Rules = append(badRule.Rules, Rule{Name: "broken"})
	if err := badRule.Validate(); err == nil {
		t.Error("rule without guard/apply should fail")
	}
	badShared := tokenRingNetwork(2)
	badShared.Shared = []SharedVar{{Name: "x"}, {Name: "x"}}
	if err := badShared.Validate(); err == nil {
		t.Error("duplicate shared variable should fail")
	}
	badInit := tokenRingNetwork(2)
	badInit.InitialLocal = func(i int) string { return "nope" }
	if err := badInit.Validate(); err == nil {
		t.Error("invalid InitialLocal should fail")
	}
}

func TestBuildKripkeTokenRingTwoProcesses(t *testing.T) {
	net := tokenRingNetwork(2)
	m, err := build(net, "", 0)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if m.NumStates() != 8 {
		t.Errorf("two-process ring has %d states, want 8 (Fig 5.1)", m.NumStates())
	}
	if m.NumTransitions() != 14 {
		t.Errorf("two-process ring has %d transitions, want 14", m.NumTransitions())
	}
	if err := m.Validate(); err != nil {
		t.Errorf("structure invalid: %v", err)
	}
	init := m.Initial()
	if !m.Holds(init, kripke.PI("t", 1)) || !m.Holds(init, kripke.PI("n", 2)) {
		t.Errorf("initial label wrong: %v", m.Label(init))
	}
	if got := m.IndexValues(); len(got) != 2 {
		t.Errorf("IndexValues = %v", got)
	}
}

func TestBuildKripkeStateLimit(t *testing.T) {
	net := tokenRingNetwork(8)
	if _, err := build(net, "", 10); err == nil {
		t.Error("the build should fail when the state limit is exceeded")
	} else if !errors.Is(err, explore.ErrLimit) || !strings.Contains(err.Error(), "more than 10 reachable states") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGlobalPropsAndSharedVariables(t *testing.T) {
	// A tiny barrier: processes flip a shared counter when they finish; a
	// global proposition "alldone" appears when the counter reaches N.
	tpl := &Template{
		Name:    "worker",
		States:  []string{"busy", "done"},
		Initial: "busy",
		Labels:  map[string][]string{"busy": {"busy"}, "done": {"done"}},
	}
	n := 3
	net := &Network{
		Template: tpl,
		N:        n,
		Shared:   []SharedVar{{Name: "finished", Initial: 0}},
		Rules: []Rule{{
			Name:  "finish",
			Guard: func(v View, i int) bool { return v.Local(i) == "busy" },
			Apply: func(v View, i int) Update {
				return Update{
					Locals: map[int]string{i: "done"},
					Shared: map[string]int{"finished": v.Shared("finished") + 1},
				}
			},
		}},
		Globals: []GlobalRule{{
			Name:  "idle",
			Guard: func(v View) bool { return v.Shared("finished") == n },
			Apply: func(v View) Update { return Update{} },
		}},
		GlobalProps: func(v View) []string {
			if v.Shared("finished") == n {
				return []string{"alldone"}
			}
			return nil
		},
	}
	m, err := build(net, "barrier", 0)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// 2^3 local configurations; the shared counter is determined by them.
	if m.NumStates() != 8 {
		t.Errorf("barrier has %d states, want 8", m.NumStates())
	}
	found := false
	for s := 0; s < m.NumStates(); s++ {
		if m.Holds(kripke.State(s), kripke.P("alldone")) {
			found = true
			for i := 1; i <= n; i++ {
				if !m.Holds(kripke.State(s), kripke.PI("done", i)) {
					t.Error("alldone state should have every process done")
				}
			}
		}
	}
	if !found {
		t.Error("no alldone state reached")
	}
	if m.Name() != "barrier" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestUpdateErrors(t *testing.T) {
	tpl := tokenRingTemplate()
	net := &Network{
		Template: tpl,
		N:        2,
		Rules: []Rule{{
			Name:  "bad-target",
			Guard: func(v View, i int) bool { return i == 1 && v.Local(1) == "n" },
			Apply: func(v View, i int) Update { return Update{Locals: map[int]string{99: "d"}} },
		}},
	}
	if _, err := build(net, "", 0); err == nil {
		t.Error("update naming an unknown process should fail")
	}
	net.Rules = []Rule{{
		Name:  "bad-shared",
		Guard: func(v View, i int) bool { return i == 1 },
		Apply: func(v View, i int) Update { return Update{Shared: map[string]int{"nope": 1}} },
	}}
	if _, err := build(net, "", 0); err == nil {
		t.Error("update naming an unknown shared variable should fail")
	}
	net.Rules = []Rule{{
		Name:  "bad-local-state",
		Guard: func(v View, i int) bool { return i == 1 },
		Apply: func(v View, i int) Update { return Update{Locals: map[int]string{1: "zzz"}} },
	}}
	if _, err := build(net, "", 0); err == nil {
		t.Error("update naming an unknown local state should fail")
	}
}

func TestFreeProduct(t *testing.T) {
	tpl := &Template{
		Name:    "flip",
		States:  []string{"a", "b"},
		Initial: "a",
		Labels:  map[string][]string{"a": {"a"}, "b": {"b"}},
	}
	net, err := FreeProduct(tpl, [][2]string{{"a", "b"}}, 3)
	if err != nil {
		t.Fatalf("FreeProduct: %v", err)
	}
	m, err := build(net, "", 0)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if m.NumStates() != 8 {
		t.Errorf("free product of 3 two-state processes has %d states, want 8", m.NumStates())
	}
	// Exactly one deadlock: the all-b state.
	if got := len(m.DeadlockStates()); got != 1 {
		t.Errorf("free product should have 1 deadlock state, got %d", got)
	}
	if _, err := FreeProduct(tpl, [][2]string{{"a", "zzz"}}, 2); err == nil {
		t.Error("FreeProduct with unknown transition endpoint should fail")
	}
	if _, err := FreeProduct(&Template{}, nil, 2); err == nil {
		t.Error("FreeProduct with invalid template should fail")
	}
}

func TestViewAccessors(t *testing.T) {
	net := tokenRingNetwork(3)
	v, err := net.initialView()
	if err != nil {
		t.Fatalf("initialView: %v", err)
	}
	if v.NumProcesses() != 3 {
		t.Errorf("NumProcesses = %d", v.NumProcesses())
	}
	if v.Local(1) != "t" || v.Local(2) != "n" {
		t.Errorf("Local wrong: %s %s", v.Local(1), v.Local(2))
	}
	if v.CountLocal("n") != 2 {
		t.Errorf("CountLocal(n) = %d", v.CountLocal("n"))
	}
	if got := v.ProcessesIn("n"); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("ProcessesIn(n) = %v", got)
	}
	if v.CountLocal("zzz") != 0 || len(v.ProcessesIn("zzz")) != 0 {
		t.Error("unknown local state should count zero")
	}
	if v.Shared("undeclared") != 0 {
		t.Error("undeclared shared variable should read as zero")
	}
}

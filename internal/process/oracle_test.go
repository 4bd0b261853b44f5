package process

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/kripke"
)

// build explores net through its Def on one worker, the route every
// network build takes; maxStates 0 means the explorer's default cap.
func build(net *Network, name string, maxStates int) (*kripke.Structure, error) {
	def, _, err := net.Def(name)
	if err != nil {
		return nil, err
	}
	m, _, err := explore.Build(context.Background(), def, explore.Options{Workers: 1, MaxStates: maxStates})
	return m, err
}

// oracleBuild is the sequential reference exploration: a FIFO
// breadth-first search over views, deduplicated by a printed key, that
// checks declared ranges and labels states itself.  It shares only the
// network's rule semantics (successors) with Def: no codec, no intern
// table and no explorer.
func oracleBuild(net *Network) (*kripke.Structure, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	initial, err := net.initialView()
	if err != nil {
		return nil, err
	}
	b := kripke.NewBuilder(fmt.Sprintf("%s[%d]", net.Template.Name, net.N))
	for i := 1; i <= net.N; i++ {
		b.DeclareIndex(i)
	}
	ids := map[string]kripke.State{}
	var views []View
	var label []kripke.Prop
	add := func(v View) (kripke.State, error) {
		for i, sv := range net.Shared {
			if val := v.shared[i]; sv.Max > 0 && (val < 0 || val > sv.Max) {
				return 0, fmt.Errorf("process: shared variable %q = %d outside its declared range [0, %d]",
					sv.Name, val, sv.Max)
			}
		}
		key := fmt.Sprint(v.locals, v.shared)
		if id, ok := ids[key]; ok {
			return id, nil
		}
		label = label[:0]
		for i := 1; i <= net.N; i++ {
			for _, prop := range net.Template.Labels[v.Local(i)] {
				label = append(label, kripke.PI(prop, i))
			}
		}
		if net.GlobalProps != nil {
			for _, p := range net.GlobalProps(v) {
				label = append(label, kripke.P(p))
			}
		}
		id := b.AddState(label...)
		ids[key] = id
		views = append(views, v)
		return id, nil
	}
	init, err := add(initial)
	if err != nil {
		return nil, err
	}
	if err := b.SetInitial(init); err != nil {
		return nil, err
	}
	for s := 0; s < len(views); s++ {
		succs, err := net.successors(views[s])
		if err != nil {
			return nil, err
		}
		for _, v := range succs {
			to, err := add(v)
			if err != nil {
				return nil, err
			}
			if err := b.AddTransition(kripke.State(s), to); err != nil {
				return nil, err
			}
		}
	}
	return b.BuildPartial()
}

// lapsNetwork is a token ring of n three-state processes (two bits each)
// with a bounded lap counter that the last process bumps, modulo 16, when
// it passes the token on.  At n = 31 the counter's four bits straddle the
// first word boundary; from n = 33 the locals alone exceed one word.
func lapsNetwork(n int) *Network {
	return &Network{
		Template: &Template{
			Name:    "laps",
			States:  []string{"idle", "token", "critical"},
			Initial: "idle",
			Labels:  map[string][]string{"token": {"t"}, "critical": {"c", "t"}},
		},
		N:      n,
		Shared: []SharedVar{{Name: "laps", Max: 15}},
		InitialLocal: func(i int) string {
			if i == 1 {
				return "token"
			}
			return "idle"
		},
		Rules: []Rule{
			{
				Name:  "enter",
				Guard: func(v View, i int) bool { return v.Local(i) == "token" },
				Apply: func(v View, i int) Update { return Update{Locals: map[int]string{i: "critical"}} },
			},
			{
				Name:  "exit",
				Guard: func(v View, i int) bool { return v.Local(i) == "critical" },
				Apply: func(v View, i int) Update { return Update{Locals: map[int]string{i: "token"}} },
			},
			{
				Name:  "pass",
				Guard: func(v View, i int) bool { return v.Local(i) == "token" },
				Apply: func(v View, i int) Update {
					u := Update{Locals: map[int]string{i: "idle", i%n + 1: "token"}}
					if i == n {
						u.Shared = map[string]int{"laps": (v.Shared("laps") + 1) % 16}
					}
					return u
				},
			},
		},
		GlobalProps: func(v View) []string { return []string{fmt.Sprintf("lap%d", v.Shared("laps"))} },
	}
}

// debtNetwork lets each of n processes borrow once, driving an unbounded
// shared balance to -n; the reset fires only when the balance reads back
// exactly -n, and the in-debt proposition labels every negative balance.
func debtNetwork(n int) *Network {
	return &Network{
		Template: &Template{
			Name:    "debt",
			States:  []string{"even", "owing"},
			Initial: "even",
			Labels:  map[string][]string{"owing": {"owes"}},
		},
		N:      n,
		Shared: []SharedVar{{Name: "balance"}},
		Rules: []Rule{{
			Name:  "borrow",
			Guard: func(v View, i int) bool { return v.Local(i) == "even" },
			Apply: func(v View, i int) Update {
				return Update{Locals: map[int]string{i: "owing"}, Shared: map[string]int{"balance": v.Shared("balance") - 1}}
			},
		}},
		Globals: []GlobalRule{{
			Name:  "settle",
			Guard: func(v View) bool { return v.Shared("balance") == -n },
			Apply: func(v View) Update {
				u := Update{Locals: map[int]string{}, Shared: map[string]int{"balance": 0}}
				for i := 1; i <= n; i++ {
					u.Locals[i] = "even"
				}
				return u
			},
		}},
		GlobalProps: func(v View) []string {
			if v.Shared("balance") < 0 {
				return []string{"in-debt"}
			}
			return nil
		},
	}
}

// TestNetworkDefMatchesSequentialOracle: exploring a network's Def, at one
// worker and at two, builds exactly the structure the sequential oracle
// builds (byte-identical under kripke.EncodeText), on one-word and on
// interned codes, and fails with the oracle's error where it fails.
func TestNetworkDefMatchesSequentialOracle(t *testing.T) {
	overflow := counterNetwork(3, true)
	overflow.Shared[0].Max = 1
	type defCase struct {
		name   string
		net    *Network
		packed bool
	}
	cases := []defCase{
		{"ring4", tokenRingNetwork(4), true},
		{"counter3", counterNetwork(3, true), true},
		{"counter3-unbounded", counterNetwork(3, false), false},
		{"laps31-straddling", lapsNetwork(31), false},
		{"laps40", lapsNetwork(40), false},
		{"debt4-negative", debtNetwork(4), false},
		{"counter3-overflow", overflow, true},
	}
	for n := 1; n <= 5; n++ {
		cases = append(cases, defCase{fmt.Sprintf("property%d", n), propertyNetwork(n), false})
	}
	for _, c := range cases {
		want, wantErr := oracleBuild(c.net)
		var wantText bytes.Buffer
		if wantErr == nil {
			if err := kripke.EncodeText(&wantText, want); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2} {
			def, packed, err := c.net.Def("")
			if err != nil {
				t.Fatalf("%s: Def: %v", c.name, err)
			}
			if packed != c.packed {
				t.Errorf("%s: packed = %v, want %v", c.name, packed, c.packed)
			}
			m, _, err := explore.Build(context.Background(), def, explore.Options{Workers: workers})
			if wantErr != nil {
				if err == nil || !strings.Contains(err.Error(), wantErr.Error()) {
					t.Errorf("%s workers=%d: err = %v, want the oracle's %q", c.name, workers, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			var got bytes.Buffer
			if err := kripke.EncodeText(&got, m); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), wantText.Bytes()) {
				t.Errorf("%s workers=%d: %d states differ from the oracle's %d (or their encodings do)",
					c.name, workers, m.NumStates(), want.NumStates())
			}
		}
	}
	// The debt network reaches every negative balance and settles: the
	// unbounded field round-trips negative values.
	m, err := build(debtNetwork(4), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.StatesWith(kripke.P("in-debt")).Count(); got != 15 {
		t.Errorf("debt4: %d in-debt states, want 15 (every non-empty set of borrowers)", got)
	}
}

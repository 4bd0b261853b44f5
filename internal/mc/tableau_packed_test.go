package mc

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/logic"
)

// chainFormula returns (X c) ∧ p, where c is a steps-long chain of ∧, ∨ and ¬
// over p, q and r that adds two closure entries per step.  At 40 steps the
// closure has 85 entries, so an assignment spans two words.
func chainFormula(steps int) logic.Formula {
	p, q, r := logic.Prop("p"), logic.Prop("q"), logic.Prop("r")
	atoms := []logic.Formula{p, q, r}
	f := p
	for i := 0; i < steps; i++ {
		a := atoms[(i+1)%3]
		switch i % 3 {
		case 0:
			f = logic.Neg(logic.Conj(f, a))
		case 1:
			f = logic.Disj(logic.Neg(f), a)
		default:
			f = logic.Neg(logic.Disj(a, f))
		}
	}
	return logic.Conj(logic.Next(f), p)
}

// wideFormula is E ((F^11 q) ∧ X p), a path formula with twelve temporal
// operators.
func wideFormula() logic.Formula {
	return logic.ExistsPath(logic.Conj(nestEventually(11, logic.Prop("q")), logic.Next(logic.Prop("p"))))
}

// TestTableauWideFormulaFootprint bounds what deciding E ((F^11 q) ∧ X p) on
// a seeded 4,000-state random structure allocates.  Its tableau has a few
// dozen assignments per leaf signature, so the product is a small multiple
// of the structure; an engine that materialises each node's assignment
// separately allocates hundreds of megabytes here.  The answer is checked
// against its CTL reading (q ∧ EX p) ∨ EX (p ∧ EF q).
func TestTableauWideFormulaFootprint(t *testing.T) {
	const limit = 32 << 20
	m := randomStructure(rand.New(rand.NewSource(4000)), 4000)
	c := New(m)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := c.Sat(context.Background(), wideFormula())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > limit {
		t.Errorf("E ((F^11 q) & X p) on %d states allocated %.1f MB, want at most %d MB",
			m.NumStates(), float64(bytes)/(1<<20), limit>>20)
	}
	want, err := New(m).Sat(context.Background(), logic.MustParse("(q & EX p) | EX (p & EF q)"))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < m.NumStates(); s++ {
		if got.Get(s) != want.Get(s) {
			t.Fatalf("E ((F^11 q) & X p) disagrees with (q & EX p) | EX (p & EF q) at state %d (tableau %v, CTL %v)",
				s, got.Get(s), want.Get(s))
		}
	}
}

// BenchmarkTableau decides non-CTL path formulas on a seeded 20,000-state
// random structure with a fresh checker per iteration.  The first three have
// one-word closures and at most ten temporal operators; "F11" has twelve
// operators and "chain85" a closure of 85 entries.
//
//	go test -run '^$' -bench BenchmarkTableau -benchtime 20x ./internal/mc/
func BenchmarkTableau(b *testing.B) {
	m := randomStructure(rand.New(rand.NewSource(20000)), 20000)
	cases := []struct {
		name string
		f    logic.Formula
	}{
		{"GFp_GFq", logic.MustParse("E ((G F p) & (G F q))")},
		{"pUq_Xr", logic.MustParse("E ((p U q) & X r)")},
		{"A_Fp_GqUr", logic.MustParse("A ((F p) | G (q U r))")},
		{"F11", wideFormula()},
		{"chain85", logic.ExistsPath(chainFormula(40))},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(m).Sat(context.Background(), bc.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

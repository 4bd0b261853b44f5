package mc_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
	"repro/internal/ring"
)

// depth3Formula draws a formula of exactly the given operator depth over
// ! & | EX AF EG AG E[U] A[U] and the ring's indexed atoms, the shape of the
// requests a check server answers.
func depth3Formula(r *rand.Rand, depth int) string {
	if depth == 0 {
		return []string{"d", "t", "c", "n"}[r.Intn(4)] + "[i]"
	}
	sub := func() string { return "(" + depth3Formula(r, depth-1) + ")" }
	switch r.Intn(9) {
	case 0:
		return "!" + sub()
	case 1:
		return sub() + " & " + sub()
	case 2:
		return sub() + " | " + sub()
	case 3:
		return "EX " + sub()
	case 4:
		return "AF " + sub()
	case 5:
		return "EG " + sub()
	case 6:
		return "AG " + sub()
	case 7:
		return "E[" + sub() + " U " + sub() + "]"
	default:
		return "A[" + sub() + " U " + sub() + "]"
	}
}

// TestMemoFootprintIsBitPacked checks a batch of depth-3 "forall i" formulas
// on the 10,240-state ring M_10 and bounds the memo at one bit per state per
// entry: MemoStats' bytes may not exceed entries × ⌈n/64⌉ words × 8 bytes
// plus the key text, so a byte-per-state memo cannot come back unnoticed.
func TestMemoFootprintIsBitPacked(t *testing.T) {
	inst, err := ring.Build(10)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.M.NumStates()
	if n != 10240 {
		t.Fatalf("M_10 has %d states, want 10240", n)
	}
	c := mc.New(inst.M)
	r := rand.New(rand.NewSource(1986))
	for i := 0; i < 40; i++ {
		f, err := logic.Parse("forall i . (" + depth3Formula(r, 3) + ")")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Holds(context.Background(), f); err != nil {
			t.Fatalf("Holds(%s): %v", f, err)
		}
	}
	entries, bytes := c.MemoStats()
	keyBytes := mc.MemoKeyBytes(c)
	if entries < 40 {
		t.Fatalf("MemoStats entries = %d after 40 distinct formulas", entries)
	}
	if limit := entries*((n+63)/64)*8 + keyBytes; bytes > limit {
		t.Fatalf("memo holds %d bytes for %d entries, above the bit-packed bound %d (%d of them keys)",
			bytes, entries, limit, keyBytes)
	}
	if bytes <= keyBytes {
		t.Fatalf("MemoStats bytes = %d does not count the sets (keys alone are %d)", bytes, keyBytes)
	}
}

// TestCTLQueryFootprint: a CTL query allocates the satisfaction sets its
// memo keeps and little else.  A ring M_10 checker is warmed with one query
// of each shape on index 1, so its labelling scratch exists; then each
// fresh query, on an index no earlier query touched, may allocate at most
// one n/8-byte set per memo entry it adds plus one set's worth for keys and
// formula nodes.  EG's Tarjan arrays, EU's levels, the complemented
// operands of AF/AG/A[U] and the parallel gather's accumulators must all
// come from the scratch.  No query may write in place into an earlier memo
// entry or into the structure's atom sets, which atom entries share, and
// afterwards the reused checker must answer as an independent checker on a
// separately built M_10 does.  The memo's map is presized before
// measuring, so its amortised growth is not charged to one query.
//
// TotalAlloc is process-wide, and a goroutine start allocates only when
// the runtime has no free goroutine to reuse, so each query is measured on
// three identically warmed checkers and the least count is judged.
//
// Runs at workers 1 and 4.  At 4 workers the frontier levels occupying 64
// or more words fan out, and starting a level's goroutines allocates their
// closures, about 450 B whatever n is; poolBookkeeping allows for the up to
// 16 such levels these queries take on M_10.  Per-worker accumulators made
// afresh would cost 4 × n/8 bytes per level and exceed it many times over.
func TestCTLQueryFootprint(t *testing.T) {
	const poolBookkeeping, attempts = 10 << 10, 3
	inst, err := ring.Build(10)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ring.Build(10)
	if err != nil {
		t.Fatal(err)
	}
	oracle := mc.New(fresh.M)
	n := inst.M.NumStates()
	set := uint64((n + 63) / 64 * 8)
	shapes := []string{"EG !c[%d]", "AF d[%d]", "AG !c[%d]", "E[n[%d] U t[%d]]", "EF c[%d]", "EX t[%d]", "A[n[%d] U c[%d]]"}
	instance := func(shape string, i int) logic.Formula {
		if strings.Count(shape, "%d") == 2 {
			return logic.MustParse(fmt.Sprintf(shape, i, i))
		}
		return logic.MustParse(fmt.Sprintf(shape, i))
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		checkers := make([]*mc.Checker, attempts)
		for a := range checkers {
			c := mc.New(inst.M).SetWorkers(workers)
			for _, shape := range shapes {
				if _, err := c.Holds(ctx, instance(shape, 1)); err != nil {
					t.Fatal(err)
				}
			}
			mc.PresizeMemo(c, 64)
			checkers[a] = c
		}
		for k, shape := range shapes {
			f := instance(shape, k+2)
			least, added := uint64(math.MaxUint64), 0
			for _, c := range checkers {
				memo, atoms := mc.MemoSnapshot(c), atomSets(inst.M)
				entries, _ := c.MemoStats()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := c.Holds(ctx, f); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
				if key := mc.MemoChanged(c, memo); key != "" {
					t.Fatalf("workers=%d %s: memo entry %s was written in place", workers, f, key)
				}
				for p, cur := range atomSets(inst.M) {
					if !cur.Equal(atoms[p]) {
						t.Fatalf("workers=%d %s: the structure's set of %s was written in place", workers, f, p)
					}
				}
				now, _ := c.MemoStats()
				added = now - entries
			}
			if added == 0 {
				t.Fatalf("workers=%d %s: no memo entry added, the query was not fresh", workers, f)
			}
			limit := uint64(added+1) * set
			if workers > 1 {
				limit += poolBookkeeping
			}
			t.Logf("workers=%d %s: %d B for %d new memo entries (limit %d)", workers, f, least, added, limit)
			if least > limit {
				t.Errorf("workers=%d %s: allocated %d B for %d new memo entries, above %d B",
					workers, f, least, added, limit)
			}
		}
		for i := 1; i <= len(shapes)+1; i++ {
			for _, shape := range append(shapes, "c[%d]", "d[%d]", "n[%d]", "t[%d]", "!c[%d]", "!t[%d]") {
				f := instance(shape, i)
				got, err := checkers[0].Sat(ctx, f)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.Sat(ctx, f)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("workers=%d: Sat(%s) on the reused checker differs from an independent checker on a separately built M_10", workers, f)
				}
			}
		}
	}
}

// atomSets copies the structure's state set of every indexed ring atom.
func atomSets(m *kripke.Structure) map[kripke.Prop]kripke.BitSet {
	out := make(map[kripke.Prop]kripke.BitSet)
	for _, p := range []string{"c", "d", "n", "t"} {
		for _, i := range m.IndexValues() {
			prop := kripke.PI(p, i)
			if set := m.StatesWith(prop); set != nil {
				out[prop] = set.Clone()
			}
		}
	}
	return out
}

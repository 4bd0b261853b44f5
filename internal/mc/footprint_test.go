package mc_test

import (
	"context"
	"math/rand"
	"testing"

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

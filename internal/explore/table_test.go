package explore

import (
	"context"
	"errors"
	"math"
	"testing"
)

// unsplitmix64 inverts splitmix64: it undoes the three xor-shifts and the
// two odd multiplications, then the additive constant.
func unsplitmix64(h uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := 0; i < 64; i += int(s) {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(m uint64) uint64 {
		inv := m // correct to 3 bits; each Newton step doubles that
		for i := 0; i < 5; i++ {
			inv *= 2 - m*inv
		}
		return inv
	}
	x := unshift(h, 31)
	x = unshift(x*inverse(0x94d049bb133111eb), 27)
	x = unshift(x*inverse(0xbf58476d1ce4e5b9), 30)
	return x - 0x9e3779b97f4a7c15
}

// TestCodeTableTagCollision: codes whose hashes agree in the stripe bits
// and the whole 32-bit tag, differing only above bit 37, get distinct ids
// and each looks up to its own id, and an absent code with the same tag
// misses — before and after the stripe grows, which rehashes from the tags
// alone.  The codes are built by inverting splitmix64, so the collisions
// are exact.
func TestCodeTableTagCollision(t *testing.T) {
	const low = 0x15_89ab_cdef // bits 0..37 of every colliding hash
	var colliding []uint64
	for hi := uint64(1); hi <= 5; hi++ {
		h := hi<<38 | low
		code := unsplitmix64(h)
		if splitmix64(code) != h {
			t.Fatalf("unsplitmix64(%#x) = %#x hashes to %#x", h, code, splitmix64(code))
		}
		colliding = append(colliding, code)
	}
	present, absent := colliding[:4], colliding[4]
	// Fillers in the same stripe, with other tags, make that stripe grow
	// several times past its minimum size.
	var fillers []uint64
	for i := uint64(1); i <= 100; i++ {
		fillers = append(fillers, unsplitmix64(i<<6|low&(numStripes-1)))
	}
	check := func(tab *codeTable, when string) {
		t.Helper()
		for id, code := range tab.codes {
			if got, ok := tab.get(code); !ok || got != int32(id) {
				t.Errorf("%s: get(%#x) = (%d, %v), want (%d, true)", when, code, got, ok, id)
			}
		}
		if got, ok := tab.get(absent); ok {
			t.Errorf("%s: absent code %#x with a colliding tag found as id %d", when, absent, got)
		}
	}
	tab := newCodeTable(true, 1)
	for _, code := range present {
		tab.insert(code)
	}
	check(tab, "colliding codes only")
	before := len(tab.stripes[low&(numStripes-1)].slots)
	for _, code := range fillers {
		tab.insert(code)
	}
	if after := len(tab.stripes[low&(numStripes-1)].slots); after <= before {
		t.Fatalf("stripe did not grow: %d slots before the fillers, %d after", before, after)
	}
	check(tab, "after growth")
}

// TestClaimRefusesHandleOverflow: a stripe's pending list holds at most
// maxPendingEntries entries in one level, the most whose index fits a
// handle's 25 bits.  With the bound lowered, a new code past it is refused
// and claims nothing, a code already pending is still found, and every
// handle claim returned names its entry after the index has rehashed.
// resetPending makes room again, and Explore reports the overflow as
// ErrLimit.
func TestClaimRefusesHandleOverflow(t *testing.T) {
	if h := int64(maxPendingEntries-1)<<6 | (numStripes - 1); h > math.MaxInt32 {
		t.Fatalf("the largest handle, %d, does not fit an int32", h)
	}
	defer func(saved int) { maxPendingEntries = saved }(maxPendingEntries)
	maxPendingEntries = 20

	const stripe = 5
	var codes []uint64 // all in one stripe
	for i := uint64(1); i <= 21; i++ {
		codes = append(codes, unsplitmix64(i<<6|stripe))
	}
	tab := newCodeTable(true, 1)
	for i, code := range codes[:20] {
		h, ok := tab.claim(code, uint64(100+i))
		if !ok || h != int32(i<<6|stripe) {
			t.Fatalf("claim of new code %d = (%d, %v), want (%d, true)", i, h, ok, i<<6|stripe)
		}
	}
	if h, ok := tab.claim(codes[20], 0); ok {
		t.Fatalf("claim past the bound returned handle %d", h)
	}
	s := &tab.stripes[stripe]
	if len(s.pend) != 20 {
		t.Fatalf("a refused claim left %d entries, want 20", len(s.pend))
	}
	if e, ok := s.claimLocked(codes[3], splitmix64(codes[3]), 7); !ok || e != 3 {
		t.Fatalf("claimLocked of a pending code at the bound = (%d, %v), want (3, true)", e, ok)
	}
	for i, code := range codes[:20] {
		want := uint64(100 + i)
		if i == 3 {
			want = 7
		}
		if e := tab.entry(int32(i<<6 | stripe)); e.code != code || e.val != want {
			t.Fatalf("entry %d = {%#x, %d}, want {%#x, %d}", i, e.code, e.val, code, want)
		}
	}
	tab.resetPending()
	if h, ok := tab.claim(codes[20], 0); !ok || h != stripe {
		t.Fatalf("claim after resetPending = (%d, %v), want (%d, true)", h, ok, stripe)
	}

	maxPendingEntries = 2
	fan := Def{Name: "fan", Succ: func(dst []uint64, code uint64) ([]uint64, error) {
		for c := uint64(1); code == 0 && c <= numStripes*2+1; c++ {
			dst = append(dst, c) // some stripe gets three of them
		}
		return dst, nil
	}}
	if _, err := Explore(context.Background(), fan, Options{Workers: 1}); !errors.Is(err, ErrLimit) {
		t.Fatalf("Explore past the bound: %v, want ErrLimit", err)
	}
}

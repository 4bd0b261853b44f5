package explore

import "testing"

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

package bisim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/kripke"
)

// denseOracle is the obvious map-backed relation the sparse Relation must
// agree with.
type denseOracle struct {
	n, n2 int
	deg   map[[2]int]int
}

func (o *denseOracle) pairs() []bisim.Pair {
	var out []bisim.Pair
	for s := 0; s < o.n; s++ {
		for t := 0; t < o.n2; t++ {
			if d, ok := o.deg[[2]int{s, t}]; ok {
				out = append(out, bisim.Pair{S: kripke.State(s), T: kripke.State(t), Degree: d})
			}
		}
	}
	return out
}

// assertMatchesOracle compares every read method of r against o.
func assertMatchesOracle(t *testing.T, r *bisim.Relation, o *denseOracle) {
	t.Helper()
	if n, n2 := r.Dims(); n != o.n || n2 != o.n2 {
		t.Fatalf("Dims = %d×%d, want %d×%d", n, n2, o.n, o.n2)
	}
	if got := r.Size(); got != len(o.deg) {
		t.Fatalf("Size = %d, want %d", got, len(o.deg))
	}
	maxDeg := 0
	for _, d := range o.deg {
		maxDeg = max(maxDeg, d)
	}
	if got := r.MaxDegree(); got != maxDeg {
		t.Fatalf("MaxDegree = %d, want %d", got, maxDeg)
	}
	if got, want := r.Pairs(), o.pairs(); !slices.Equal(got, want) {
		t.Fatalf("Pairs = %v, want %v", got, want)
	}
	lookup := bisim.CheckLookup(r)
	for s := 0; s < o.n; s++ {
		var left []kripke.State
		for t2 := 0; t2 < o.n2; t2++ {
			d, ok := o.deg[[2]int{s, t2}]
			gd, gok := r.Degree(kripke.State(s), kripke.State(t2))
			if gok != ok || (ok && gd != d) {
				t.Fatalf("Degree(%d,%d) = %d,%v, want %d,%v", s, t2, gd, gok, d, ok)
			}
			if ld, lok := lookup(kripke.State(s), kripke.State(t2)); lok != ok || (ok && ld != d) {
				t.Fatalf("Check's lookup(%d,%d) = %d,%v, want %d,%v", s, t2, ld, lok, d, ok)
			}
			if r.Contains(kripke.State(s), kripke.State(t2)) != ok {
				t.Fatalf("Contains(%d,%d) = %v, want %v", s, t2, !ok, ok)
			}
			if ok {
				left = append(left, kripke.State(t2))
			}
		}
		if got := r.RelatedLeft(kripke.State(s)); !slices.Equal(got, left) {
			t.Fatalf("RelatedLeft(%d) = %v, want %v", s, got, left)
		}
	}
	for t2 := 0; t2 < o.n2; t2++ {
		var right []kripke.State
		for s := 0; s < o.n; s++ {
			if _, ok := o.deg[[2]int{s, t2}]; ok {
				right = append(right, kripke.State(s))
			}
		}
		if got := r.RelatedRight(kripke.State(t2)); !slices.Equal(got, right) {
			t.Fatalf("RelatedRight(%d) = %v, want %v", t2, got, right)
		}
	}
}

// TestRelationMatchesDenseOracle drives the sparse relation and a map
// oracle through the same random writes — in-order and out-of-order Set,
// overwriting Set, Remove — and compares every read method after each
// batch, on shapes from 1×1 through empty and full rows to n > 64.
func TestRelationMatchesDenseOracle(t *testing.T) {
	shapes := []struct {
		name    string
		n, n2   int
		density float64
	}{
		{"1x1", 1, 1, 1},
		{"empty", 5, 7, 0},
		{"full-rows", 6, 9, 1},
		{"sparse-wide", 3, 200, 0.05},
		{"n>64", 70, 90, 0.1},
		{"n>64-dense", 130, 67, 0.6},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.n*1000 + sh.n2)))
			o := &denseOracle{n: sh.n, n2: sh.n2, deg: map[[2]int]int{}}
			r := bisim.NewRelation(sh.n, sh.n2)
			// In (s, t) order first, as ring.BuildRelation writes.
			for s := 0; s < sh.n; s++ {
				for t2 := 0; t2 < sh.n2; t2++ {
					if rng.Float64() < sh.density {
						d := rng.Intn(9)
						r.Set(kripke.State(s), kripke.State(t2), d)
						o.deg[[2]int{s, t2}] = d
					}
				}
			}
			assertMatchesOracle(t, r, o)
			// Then random writes in any order.
			for batch := 0; batch < 8; batch++ {
				for k := 0; k < 3+sh.n; k++ {
					s, t2 := rng.Intn(sh.n), rng.Intn(sh.n2)
					if rng.Intn(3) == 0 {
						r.Remove(kripke.State(s), kripke.State(t2))
						delete(o.deg, [2]int{s, t2})
						continue
					}
					d := rng.Intn(12)
					r.Set(kripke.State(s), kripke.State(t2), d)
					o.deg[[2]int{s, t2}] = d
				}
				assertMatchesOracle(t, r, o)
			}
			// A JSON round trip keeps every pair.
			data, err := r.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := bisim.UnmarshalRelationJSON(data)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesOracle(t, decoded, o)
		})
	}
}

// TestRelationClusteredRows packs rows into a few columns of a wide
// second structure, so Check's lookup meets buckets holding many pairs and
// buckets holding none.
func TestRelationClusteredRows(t *testing.T) {
	o := &denseOracle{n: 4, n2: 1000, deg: map[[2]int]int{}}
	r := bisim.NewRelation(4, 1000)
	set := func(s, t2, d int) {
		r.Set(kripke.State(s), kripke.State(t2), d)
		o.deg[[2]int{s, t2}] = d
	}
	for k := 0; k < 10; k++ {
		set(0, k, k)
		set(1, 990+k, k)
		set(3, 500+k*k, k)
	}
	set(2, 999, 7)
	assertMatchesOracle(t, r, o)
}

// TestRelationSetOutOfOrderRows writes rows back to front and columns
// right to left, so every Set shifts pairs already stored.
func TestRelationSetOutOfOrderRows(t *testing.T) {
	o := &denseOracle{n: 4, n2: 4, deg: map[[2]int]int{}}
	r := bisim.NewRelation(4, 4)
	for s := 3; s >= 0; s-- {
		for t2 := 3; t2 >= 0; t2 -= 2 {
			r.Set(kripke.State(s), kripke.State(t2), s+t2)
			o.deg[[2]int{s, t2}] = s + t2
		}
	}
	assertMatchesOracle(t, r, o)
	r.Remove(0, 3)
	r.Remove(3, 1)
	r.Remove(2, 2) // absent: no-op
	delete(o.deg, [2]int{0, 3})
	delete(o.deg, [2]int{3, 1})
	assertMatchesOracle(t, r, o)
}

// ringRelationsDigest hashes the JSON of every pair relation of the ring
// correspondence M_small ~ M_large, in index-pair order.
func ringRelationsDigest(t *testing.T, small, large int) string {
	t.Helper()
	res, err := family.DecideCorrespondence(context.Background(), family.Ring(), small, large)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for p, pr := range res.Pairs {
		data, err := pr.Relation.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d,%d:", p.I, p.I2)
		h.Write(data)
		h.Write([]byte("\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRelationJSONPinned pins the bytes of the relations served in ring
// certificates: the digest was taken from the dense representation the
// sparse rows replaced, so the wire format cannot drift.
func TestRelationJSONPinned(t *testing.T) {
	const want = "3c4530779c4180bd9a09b4ea60ca2ccade6f8d82c358f625e4c0b15e9cb89c29"
	if got := ringRelationsDigest(t, 3, 6); got != want {
		t.Fatalf("M_3 ~ M_6 relation JSON digest = %s, want %s", got, want)
	}
}

func TestUnmarshalRelationRejectsDuplicatePair(t *testing.T) {
	_, err := bisim.UnmarshalRelationJSON([]byte(`{"n":2,"n2":3,"pairs":[{"s":1,"t":2,"degree":0},{"s":0,"t":1,"degree":1},{"s":1,"t":2,"degree":5}]}`))
	if err == nil {
		t.Fatal("a pair listed twice was accepted")
	}
	if !strings.Contains(err.Error(), "(1,2)") {
		t.Fatalf("error %q does not name the repeated pair (1,2)", err)
	}
	// Out-of-order pairs without repeats still decode.
	r, err := bisim.UnmarshalRelationJSON([]byte(`{"n":2,"n2":3,"pairs":[{"s":1,"t":2,"degree":0},{"s":0,"t":1,"degree":1},{"s":1,"t":0,"degree":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := []bisim.Pair{{S: 0, T: 1, Degree: 1}, {S: 1, T: 0, Degree: 5}, {S: 1, T: 2, Degree: 0}}
	if got := r.Pairs(); !slices.Equal(got, want) {
		t.Fatalf("Pairs = %v, want %v", got, want)
	}
	if _, err := bisim.UnmarshalRelationJSON([]byte(`{"n":99999999999,"n2":1,"pairs":[]}`)); err == nil {
		t.Fatal("a relation claiming 10^11 states was accepted")
	}
}

// FuzzRelationJSON decodes arbitrary bytes as a relation.  Decoding must
// fail or yield pairs that are in range, non-negative and not repeated, and
// a decoded relation must re-encode and re-decode to an equal relation.
//
//	go test ./internal/bisim -run '^$' -fuzz FuzzRelationJSON -fuzztime 30s
func FuzzRelationJSON(f *testing.F) {
	r := bisim.NewRelation(3, 4)
	r.Set(0, 1, 0)
	r.Set(2, 3, 2)
	r.Set(2, 0, 1)
	valid, err := r.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"n":1,"n2":1,"pairs":null}`))
	f.Add([]byte(`{"n":2,"n2":2,"pairs":[{"s":1,"t":1,"degree":3},{"s":0,"t":0,"degree":0}]}`))
	f.Add([]byte(`{"n":2,"n2":2,"pairs":[{"s":1,"t":1,"degree":3},{"s":1,"t":1,"degree":0}]}`))
	f.Add([]byte(`{"n":2,"n2":2,"pairs":[{"s":2,"t":0,"degree":0}]}`))
	f.Add([]byte(`{"n":70000000000,"n2":3}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := bisim.UnmarshalRelationJSON(data)
		if err != nil {
			return
		}
		n, n2 := got.Dims()
		pairs := got.Pairs()
		for i, p := range pairs {
			if p.S < 0 || int(p.S) >= n || p.T < 0 || int(p.T) >= n2 || p.Degree < 0 {
				t.Fatalf("decoded pair %+v is outside %d×%d or has a negative degree", p, n, n2)
			}
			if i > 0 && (pairs[i-1].S > p.S || pairs[i-1].S == p.S && pairs[i-1].T >= p.T) {
				t.Fatalf("decoded pairs %+v and %+v are repeated or out of order", pairs[i-1], p)
			}
		}
		if got.Size() != len(pairs) {
			t.Fatalf("Size = %d but Pairs has %d", got.Size(), len(pairs))
		}
		again, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := bisim.UnmarshalRelationJSON(again)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", again, err)
		}
		if bn, bn2 := back.Dims(); bn != n || bn2 != n2 || !slices.Equal(back.Pairs(), pairs) {
			t.Fatalf("round trip changed the relation: %s", again)
		}
		if third, _ := back.MarshalJSON(); !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not stable: %s vs %s", again, third)
		}
	})
}

// FuzzRelationCSR decodes arbitrary bytes as the compressed sparse rows of
// an n×n2 relation.  Decoding must fail or yield in-range rows of strictly
// increasing states, and a decoded relation must re-encode to exactly the
// bytes it came from.  A relation built from the same bytes must survive
// AppendCSR → DecodeCSR, and the bytes behind a first row that claims more
// pairs than they can hold must be rejected before anything is allocated
// for the relation.
//
//	go test ./internal/bisim -run '^$' -fuzz FuzzRelationCSR -fuzztime 30s
func FuzzRelationCSR(f *testing.F) {
	r := bisim.NewRelation(3, 4)
	r.Set(0, 1, 0)
	r.Set(2, 3, 2)
	r.Set(2, 0, 1)
	f.Add(uint8(3), uint16(4), r.AppendCSR(nil))
	f.Add(uint8(1), uint16(1), []byte{0})
	f.Add(uint8(1), uint16(2), []byte{2, 0, 0, 0, 0})
	f.Add(uint8(1), uint16(2), []byte{2, 0, 0, 0})                         // truncated
	f.Add(uint8(1), uint16(2), []byte{1, 0x80, 0x00, 0})                   // non-minimal varint
	f.Add(uint8(1), uint16(1), []byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0x07}) // degree math.MaxInt32
	f.Add(uint8(1), uint16(1), []byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // degree 2^32-1
	f.Add(uint8(1), uint16(1), []byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0x87}) // varint over 5 bytes
	f.Add(uint8(1), uint16(1), []byte{0, 0})                               // trailing byte
	f.Add(uint8(1), uint16(3), []byte{2, 1, 1, 0, 0})                      // second state past n2
	f.Add(uint8(1), uint16(9), []byte{0x7f, 1, 2})                         // row longer than the bytes
	f.Add(uint8(0), uint16(1), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, n2 uint16, data []byte) {
		if got, err := bisim.DecodeCSR(int(n), int(n2), data); err == nil {
			gn, gn2 := got.Dims()
			if gn != int(n) || gn2 != int(n2) {
				t.Fatalf("decoded dimensions %dx%d, want %dx%d", gn, gn2, n, n2)
			}
			pairs := got.Pairs()
			for i, p := range pairs {
				if p.S < 0 || int(p.S) >= gn || p.T < 0 || int(p.T) >= gn2 || p.Degree < 0 {
					t.Fatalf("decoded pair %+v is outside %d×%d or has a negative degree", p, gn, gn2)
				}
				if i > 0 && pairs[i-1].S == p.S && pairs[i-1].T >= p.T {
					t.Fatalf("row %d is not strictly increasing: %+v then %+v", p.S, pairs[i-1], p)
				}
			}
			if got.Size() != len(pairs) {
				t.Fatalf("Size = %d but Pairs has %d", got.Size(), len(pairs))
			}
			if again := got.AppendCSR(nil); !bytes.Equal(again, data) {
				t.Fatalf("re-encoding gives %x, decoded %x", again, data)
			}
		}
		if n == 0 || n2 == 0 {
			return
		}
		built := bisim.NewRelation(int(n), int(n2))
		for i := 0; i+3 < len(data); i += 4 {
			t2 := (int(data[i+1])<<8 | int(data[i+2])) % int(n2)
			built.Set(kripke.State(int(data[i])%int(n)), kripke.State(t2), int(data[i+3])<<(data[i+3]%24))
		}
		back, err := bisim.DecodeCSR(int(n), int(n2), built.AppendCSR(nil))
		if err != nil {
			t.Fatalf("decoding an encoded relation: %v", err)
		}
		if !slices.Equal(back.Pairs(), built.Pairs()) {
			t.Fatalf("round trip changed the relation: %v vs %v", back.Pairs(), built.Pairs())
		}
		rest := data[:min(len(data), 200)] // so the claim fits one varint byte
		oversized := append([]byte{byte(len(rest)/2 + 1)}, rest...)
		var decodeErr error
		allocs := testing.AllocsPerRun(20, func() {
			_, decodeErr = bisim.DecodeCSR(int(n), int(n2), oversized)
		})
		if decodeErr == nil {
			t.Fatalf("a row claiming %d pairs in %d bytes decoded", len(rest)/2+1, len(rest))
		}
		if allocs > 1 {
			t.Fatalf("rejecting an oversized row allocated %v times, want only the error value", allocs)
		}
	})
}

package explore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/kripke"
	"repro/internal/ring"
)

// sequentialReference is the engine the parallel exploration must
// reproduce exactly: a FIFO queue over codes with first-occurrence
// numbering.
func sequentialReference(t *testing.T, def explore.Def, maxStates int) (codes []uint64, succ [][]int32) {
	t.Helper()
	index := map[uint64]int32{def.Init: 0}
	codes = []uint64{def.Init}
	var buf []uint64
	for frontier := 0; frontier < len(codes); frontier++ {
		var err error
		buf, err = def.Succ(buf[:0], codes[frontier])
		if err != nil {
			t.Fatal(err)
		}
		var row []int32
		for _, c := range buf {
			id, ok := index[c]
			if !ok {
				id = int32(len(codes))
				index[c] = id
				codes = append(codes, c)
				if len(codes) > maxStates {
					t.Fatalf("reference exploration exceeds %d states", maxStates)
				}
			}
			row = append(row, id)
		}
		// The engine sorts and deduplicates per-state successor rows (the
		// CSR convention of kripke.Builder).
		seen := map[int32]bool{}
		var dedup []int32
		for _, id := range row {
			if !seen[id] {
				seen[id] = true
				dedup = append(dedup, id)
			}
		}
		for i := 1; i < len(dedup); i++ {
			for j := i; j > 0 && dedup[j] < dedup[j-1]; j-- {
				dedup[j], dedup[j-1] = dedup[j-1], dedup[j]
			}
		}
		succ = append(succ, dedup)
	}
	return codes, succ
}

// TestExploreMatchesSequentialReference: for a grid of ring sizes and
// worker counts, the parallel engine reproduces the sequential FIFO
// numbering and transition rows exactly.
func TestExploreMatchesSequentialReference(t *testing.T) {
	for _, r := range []int{1, 2, 3, 5, 8, 10} {
		def := ring.PackedDef(r)
		wantCodes, wantSucc := sequentialReference(t, def, 1<<21)
		for _, workers := range []int{1, 2, 3, 8, 16} {
			sp, err := explore.Explore(context.Background(), def, explore.Options{Workers: workers})
			if err != nil {
				t.Fatalf("r=%d workers=%d: %v", r, workers, err)
			}
			if sp.NumStates() != len(wantCodes) {
				t.Fatalf("r=%d workers=%d: %d states, want %d", r, workers, sp.NumStates(), len(wantCodes))
			}
			for s, want := range wantCodes {
				if got := sp.Code(int32(s)); got != want {
					t.Fatalf("r=%d workers=%d: state %d code %#x, want %#x", r, workers, s, got, want)
				}
				row := sp.Succ(int32(s))
				if len(row) != len(wantSucc[s]) {
					t.Fatalf("r=%d workers=%d: state %d has %d successors, want %d",
						r, workers, s, len(row), len(wantSucc[s]))
				}
				for k, id := range row {
					if int32(id) != wantSucc[s][k] {
						t.Fatalf("r=%d workers=%d: state %d successor %d = %d, want %d",
							r, workers, s, k, id, wantSucc[s][k])
					}
				}
				if id, ok := sp.Lookup(want); !ok || id != int32(s) {
					t.Fatalf("r=%d workers=%d: Lookup(%#x) = (%d, %v), want (%d, true)",
						r, workers, want, id, ok, s)
				}
			}
		}
	}
}

// unpackedRingReference builds M_r from the unpacked ring rules
// (GlobalState.Successors and GlobalState.Label), which share no code with
// the packed successor and label functions of ring.PackedDef: a FIFO
// exploration keyed by GlobalState.Key with first-occurrence numbering.
func unpackedRingReference(t *testing.T, r int) *kripke.Structure {
	t.Helper()
	b := kripke.NewBuilder(fmt.Sprintf("ring[%d]", r))
	for i := 1; i <= r; i++ {
		b.DeclareIndex(i)
	}
	init := ring.NewGlobalState(r)
	index := map[string]kripke.State{init.Key(): b.AddState(init.Label()...)}
	states := []ring.GlobalState{init}
	for frontier := 0; frontier < len(states); frontier++ {
		for _, next := range states[frontier].Successors() {
			id, ok := index[next.Key()]
			if !ok {
				id = b.AddState(next.Label()...)
				index[next.Key()] = id
				states = append(states, next)
			}
			if err := b.AddTransition(kripke.State(frontier), id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.SetInitial(0); err != nil {
		t.Fatal(err)
	}
	m, err := b.BuildPartial()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBuildMatchesRingBuild: the labelled parallel build, for every worker
// count, and ring.Build are byte-identical to the structure the unpacked
// ring rules generate.
func TestBuildMatchesRingBuild(t *testing.T) {
	encode := func(m *kripke.Structure) string {
		var buf bytes.Buffer
		if err := kripke.EncodeText(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, r := range []int{2, 3, 6, 9} {
		want := encode(unpackedRingReference(t, r))
		inst, err := ring.Build(r)
		if err != nil {
			t.Fatal(err)
		}
		if encode(inst.M) != want {
			t.Fatalf("r=%d: ring.Build differs from the unpacked reference", r)
		}
		for _, workers := range []int{1, 4, 16} {
			m, _, err := explore.Build(context.Background(), ring.PackedDef(r),
				explore.Options{Workers: workers})
			if err != nil {
				t.Fatalf("r=%d workers=%d: %v", r, workers, err)
			}
			if encode(m) != want {
				t.Fatalf("r=%d workers=%d: parallel build differs from the unpacked reference", r, workers)
			}
		}
	}
}

// TestExploreStateLimit: exceeding MaxStates surfaces as ErrLimit.
func TestExploreStateLimit(t *testing.T) {
	_, err := explore.Explore(context.Background(), ring.PackedDef(8), explore.Options{MaxStates: 100})
	if !errors.Is(err, explore.ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

// TestExploreSuccError: a successor-function error aborts the exploration
// with the wrapped error, not a partial result.
func TestExploreSuccError(t *testing.T) {
	boom := errors.New("boom")
	def := explore.Def{
		Name: "broken",
		Succ: func(dst []uint64, code uint64) ([]uint64, error) {
			if code >= 3 {
				return dst, boom
			}
			return append(dst, code+1), nil
		},
	}
	for _, workers := range []int{1, 8} {
		_, err := explore.Explore(context.Background(), def, explore.Options{Workers: workers})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

// TestExploreDeterministicAcrossRuns: repeated parallel runs of the same
// definition agree state for state (scheduling independence, not just
// set equality).
func TestExploreDeterministicAcrossRuns(t *testing.T) {
	def := ring.PackedDef(9)
	first, err := explore.Explore(context.Background(), def, explore.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		sp, err := explore.Explore(context.Background(), def, explore.Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if sp.NumStates() != first.NumStates() || sp.NumTransitions() != first.NumTransitions() {
			t.Fatalf("run %d: %d states / %d transitions, want %d / %d",
				run, sp.NumStates(), sp.NumTransitions(), first.NumStates(), first.NumTransitions())
		}
		for s := int32(0); int(s) < sp.NumStates(); s++ {
			if sp.Code(s) != first.Code(s) {
				t.Fatalf("run %d: state %d code %#x, want %#x", run, s, sp.Code(s), first.Code(s))
			}
		}
	}
}

// TestBuildFromSpaceTransitionCounts: the structure built from a space has
// exactly the space's states and transitions.
func TestBuildFromSpaceTransitionCounts(t *testing.T) {
	def := ring.PackedDef(7)
	sp, err := explore.Explore(context.Background(), def, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := ring.ExpectedReachable(7); sp.NumStates() != want {
		t.Fatalf("%d states, want %d", sp.NumStates(), want)
	}
	m, err := explore.BuildFromSpace(context.Background(), def, sp)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != sp.NumStates() {
		t.Fatalf("structure has %d states, space has %d", m.NumStates(), sp.NumStates())
	}
	edges := 0
	for s := 0; s < m.NumStates(); s++ {
		edges += len(m.Succ(kripke.State(s)))
	}
	if edges != sp.NumTransitions() {
		t.Fatalf("structure has %d transitions, space has %d", edges, sp.NumTransitions())
	}
}

// TestExploreNilSucc: a definition without a successor function is
// rejected, not explored.
func TestExploreNilSucc(t *testing.T) {
	if _, err := explore.Explore(context.Background(), explore.Def{Name: "nil"}, explore.Options{}); err == nil {
		t.Fatal("nil Succ accepted")
	}
}

func ExampleExplore() {
	sp, err := explore.Explore(context.Background(), ring.PackedDef(4), explore.Options{Workers: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ring[4]: %d states, %d transitions\n", sp.NumStates(), sp.NumTransitions())
	// Output:
	// ring[4]: 64 states, 188 transitions
}

package experiments

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/store"
)

// corruptStoreEntry overwrites one entry's file with garbage in place.
func corruptStoreEntry(t *testing.T, s *store.Store, key store.Key) {
	t.Helper()
	path := filepath.Join(s.Dir(), key.Hash()+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry to corrupt does not exist: %v", err)
	}
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func collectSweep(t *testing.T, r Runner, topo family.Topology, sizes []int) []SweepRow {
	t.Helper()
	var rows []SweepRow
	for row := range r.TopologySweep(context.Background(), topo, sizes) {
		if row.Err != nil {
			t.Fatalf("%s n=%d: %v", row.Topology, row.R, row.Err)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].R < rows[b].R })
	return rows
}

func assertRowsAgree(t *testing.T, label string, cold, other []SweepRow) {
	t.Helper()
	if len(cold) != len(other) {
		t.Fatalf("%s: %d rows vs %d cold rows", label, len(other), len(cold))
	}
	for i := range cold {
		c, o := cold[i], other[i]
		if c.R != o.R || c.States != o.States || c.Transitions != o.Transitions ||
			c.Corresponds != o.Corresponds || c.MaxDegree != o.MaxDegree || c.BuildOnly != o.BuildOnly {
			t.Fatalf("%s n=%d: row disagrees with cold sweep:\ncold: %+v\ngot:  %+v", label, c.R, c, o)
		}
	}
}

// TestStoreReplaySweep is the acceptance gate for the verdict store: a
// second sweep against a populated store must be pure cache replay — every
// row a hit, zero refinement computations — and must report the same
// verdicts as the cold sweep that populated it.
func TestStoreReplaySweep(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = t.Logf
	sizes := []int{4, 5, 6, 7}
	first := collectSweep(t, Runner{Store: s}, family.Ring(), sizes)
	for _, row := range first {
		if row.CacheHit {
			t.Fatalf("first sweep n=%d hit an empty store", row.R)
		}
	}
	if st := s.Stats(); st.Writes != int64(len(sizes)) {
		t.Fatalf("first sweep wrote %d entries, want %d", st.Writes, len(sizes))
	}

	before := bisim.ComputeCalls()
	second := collectSweep(t, Runner{Store: s}, family.Ring(), sizes)
	if delta := bisim.ComputeCalls() - before; delta != 0 {
		t.Fatalf("replay sweep ran %d refinement computations, want 0", delta)
	}
	assertRowsAgree(t, "replay", first, second)
	for _, row := range second {
		if !row.CacheHit {
			t.Fatalf("replay sweep n=%d missed the store", row.R)
		}
		if row.BuildElapsed != 0 || row.DecideElapsed != 0 {
			t.Fatalf("replay sweep n=%d reports build/decide time %v/%v on a cache hit",
				row.R, row.BuildElapsed, row.DecideElapsed)
		}
	}
	if st := s.Stats(); st.Hits != int64(len(sizes)) || st.Invalid != 0 {
		t.Fatalf("replay stats = %+v, want %d hits and no invalid entries", st, len(sizes))
	}
}

// TestStoreReplayAllTopologies replays a short sweep of every built-in
// topology, so the store key discriminates families correctly (a star
// verdict must never replay as a torus verdict).
func TestStoreReplayAllTopologies(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = t.Logf
	type sweep struct {
		topo family.Topology
		rows []SweepRow
	}
	var sweeps []sweep
	for _, topo := range family.Topologies() {
		small := topo.CutoffSize()
		sizes := family.ValidSizesIn(topo, small+1, small+3)
		if len(sizes) == 0 {
			t.Fatalf("%s: no valid sizes just past the cutoff", topo.Name())
		}
		sweeps = append(sweeps, sweep{topo, collectSweep(t, Runner{Store: s}, topo, sizes)})
	}
	before := bisim.ComputeCalls()
	for _, sw := range sweeps {
		sizes := make([]int, len(sw.rows))
		for i, row := range sw.rows {
			sizes[i] = row.R
		}
		again := collectSweep(t, Runner{Store: s}, sw.topo, sizes)
		assertRowsAgree(t, sw.topo.Name()+" replay", sw.rows, again)
		for _, row := range again {
			if !row.CacheHit {
				t.Fatalf("%s n=%d missed the store on replay", sw.topo.Name(), row.R)
			}
		}
	}
	if delta := bisim.ComputeCalls() - before; delta != 0 {
		t.Fatalf("cross-topology replay ran %d refinement computations, want 0", delta)
	}
}

// TestStoreCorruptEntryRecomputed: damaging one stored entry turns exactly
// that row back into a cold decision, which then heals the store.
func TestStoreCorruptEntryRecomputed(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = t.Logf
	sizes := []int{4, 5}
	first := collectSweep(t, Runner{Store: s}, family.Ring(), sizes)

	corruptStoreEntry(t, s, sweepKey(family.Ring(), 5))

	second := collectSweep(t, Runner{Store: s}, family.Ring(), sizes)
	assertRowsAgree(t, "post-corruption", first, second)
	for _, row := range second {
		wantHit := row.R == 4
		if row.CacheHit != wantHit {
			t.Fatalf("n=%d: CacheHit = %v after corrupting the n=5 entry", row.R, row.CacheHit)
		}
	}
	if st := s.Stats(); st.Invalid != 1 {
		t.Fatalf("stats = %+v, want exactly one invalid entry", st)
	}
	third := collectSweep(t, Runner{Store: s}, family.Ring(), sizes)
	for _, row := range third {
		if !row.CacheHit {
			t.Fatalf("n=%d still cold after the recompute rewrote the entry", row.R)
		}
	}
}

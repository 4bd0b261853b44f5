package podc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bisim"
	"repro/internal/store"
	"repro/pkg/podc"
)

// The session-level verdict-store tests: a second session sharing the store
// directory must answer correspondences, certificates and evidence by pure
// replay (zero refinement computations), and every replayed artefact must
// survive its revalidation gate.

func TestSessionStoreReplaysCorrespondence(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	s1 := podc.NewSession(podc.WithStore(dir))
	first, err := s1.Correspondence(ctx, podc.RingTopology(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Corresponds() {
		t.Fatal("ring 3~5 must correspond")
	}
	if st, ok := s1.StoreStats(); !ok || st.Writes == 0 {
		t.Fatalf("first session did not populate the store (stats %+v, ok %v)", st, ok)
	}

	s2 := podc.NewSession(podc.WithStore(dir))
	before := bisim.ComputeCalls()
	second, err := s2.Correspondence(ctx, podc.RingTopology(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if delta := bisim.ComputeCalls() - before; delta != 0 {
		t.Fatalf("replaying session ran %d refinement computations, want 0", delta)
	}
	if second.Corresponds() != first.Corresponds() || second.MaxDegree() != first.MaxDegree() {
		t.Fatalf("replayed correspondence disagrees: corresponds %v/%v, max degree %d/%d",
			first.Corresponds(), second.Corresponds(), first.MaxDegree(), second.MaxDegree())
	}
	if len(second.IndexRelation()) != len(first.IndexRelation()) {
		t.Fatal("replayed correspondence lost index pairs")
	}
	if st, ok := s2.StoreStats(); !ok || st.Hits != 1 {
		t.Fatalf("replaying session stats = %+v, ok %v, want one hit", st, ok)
	}
}

func TestSessionStoreReplaysCertificate(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	s1 := podc.NewSession(podc.WithStore(dir))
	first, err := s1.TransferCertificate(ctx, podc.RingTopology(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	firstJSON, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}

	s2 := podc.NewSession(podc.WithStore(dir))
	before := bisim.ComputeCalls()
	second, err := s2.TransferCertificate(ctx, podc.RingTopology(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if delta := bisim.ComputeCalls() - before; delta != 0 {
		t.Fatalf("certificate replay ran %d refinement computations, want 0 (validation re-checks clauses, it does not re-decide)", delta)
	}
	secondJSON, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if string(firstJSON) != string(secondJSON) {
		t.Fatalf("replayed certificate differs:\nfirst:  %s\nsecond: %s", firstJSON, secondJSON)
	}
}

func TestSessionStoreRejectsTamperedCertificate(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	s1 := podc.NewSession(podc.WithStore(dir))
	if _, err := s1.TransferCertificate(ctx, podc.RingTopology(), 3, 4); err != nil {
		t.Fatal(err)
	}
	// Corrupt every stored entry in place; the next session must detect the
	// damage, recompute, and still hand out a valid certificate.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries written")
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := podc.NewSession(podc.WithStore(dir))
	cert, err := s2.TransferCertificate(ctx, podc.RingTopology(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Validate(podc.RingTopology().Family()); err != nil {
		t.Fatalf("recomputed certificate invalid: %v", err)
	}
	st, ok := s2.StoreStats()
	if !ok || st.Invalid == 0 {
		t.Fatalf("damage not detected (stats %+v, ok %v)", st, ok)
	}
}

func TestSessionStoreReplaysEvidence(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// Ring 2 vs 4 is below the corrected cutoff: the correspondence fails
	// and yields replay-confirmed distinguishing evidence.
	s1 := podc.NewSession(podc.WithStore(dir))
	first, err := s1.CorrespondenceEvidence(ctx, podc.RingTopology(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("ring 2~4 must fail and yield evidence")
	}
	if first.FormulaText == "" || !first.Confirmed {
		t.Fatalf("first evidence not confirmed: %s", first)
	}

	s2 := podc.NewSession(podc.WithStore(dir))
	before := bisim.ComputeCalls()
	second, err := s2.CorrespondenceEvidence(ctx, podc.RingTopology(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if delta := bisim.ComputeCalls() - before; delta != 0 {
		t.Fatalf("evidence replay ran %d refinement computations, want 0 (the verdict and the formula both come from the store)", delta)
	}
	if second == nil || second.String() != first.String() {
		t.Fatalf("replayed evidence differs:\nfirst:  %s\nsecond: %s", first, second)
	}
	if !second.Confirmed {
		t.Fatal("replayed evidence must be re-confirmed through the model checker")
	}
}

func TestSessionStoreOpenFailureDegradesGracefully(t *testing.T) {
	ctx := context.Background()
	// A file where the store directory should go: Open must fail, and the
	// session must keep answering without a store.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := podc.NewSession(podc.WithStore(filepath.Join(blocker, "store")))
	corr, err := s.Correspondence(ctx, podc.RingTopology(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !corr.Corresponds() {
		t.Fatal("ring 3~4 must correspond")
	}
	if _, ok := s.StoreStats(); ok {
		t.Fatal("StoreStats must report no store after a failed open")
	}
}

func TestSessionStoreSweepReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sizes := []int{4, 5, 6}

	run := func() []podc.SweepResult {
		s := podc.NewSession(podc.WithStore(dir))
		var rows []podc.SweepResult
		for row := range s.SweepTopology(ctx, podc.RingTopology(), sizes) {
			if row.Err != nil {
				t.Fatalf("n=%d: %v", row.R, row.Err)
			}
			rows = append(rows, row)
		}
		return rows
	}
	first := run()
	for _, row := range first {
		if row.CacheHit {
			t.Fatalf("first sweep n=%d hit an empty store", row.R)
		}
	}
	before := bisim.ComputeCalls()
	second := run()
	if delta := bisim.ComputeCalls() - before; delta != 0 {
		t.Fatalf("sweep replay ran %d refinement computations, want 0", delta)
	}
	for _, row := range second {
		if !row.CacheHit {
			t.Fatalf("replay sweep n=%d missed the store", row.R)
		}
	}
}

// TestSessionCertificateFromStoredCorrespondence covers a store holding the
// correspondence but not the certificate: the certificate is packaged from
// the restored relations without a refinement, and validated first, since
// those relations passed only Restore's structural audit.  A record whose
// relations were emptied — re-signed, so only validation can catch it —
// must not reach the certificate; the pair is decided afresh instead, on
// the session's instances with one refinement per orbit class.
func TestSessionCertificateFromStoredCorrespondence(t *testing.T) {
	ctx := context.Background()
	want, err := podc.BuildTransferCertificate(ctx, podc.RingTopology().Family(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	in := podc.RingTopology().IndexRelation(3, 5)
	left, right, err := podc.SessionIndexActions(ctx, podc.NewSession(), podc.RingTopology(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	classes := orbitClasses(t, in, left, right)
	for _, tamper := range []bool{false, true} {
		dir := t.TempDir()
		if _, err := podc.NewSession(podc.WithStore(dir)).Correspondence(ctx, podc.RingTopology(), 3, 5); err != nil {
			t.Fatal(err)
		}
		if tamper {
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := store.Key{Kind: "correspondence", Topology: "ring", Small: 3, Large: 5,
				Atoms: podc.RingTopology().Atoms(), ReachableOnly: true}
			var rec store.CorrespondenceRecord
			if ok, err := st.Get(key, &rec); err != nil || !ok {
				t.Fatalf("stored correspondence not found: (%v, %v)", ok, err)
			}
			for i, p := range rec.Pairs {
				n, n2 := p.Relation.Dims()
				rec.Pairs[i].Relation = bisim.NewRelation(n, n2)
			}
			if err := st.Put(key, &rec); err != nil {
				t.Fatal(err)
			}
		}
		s := podc.NewSession(podc.WithStore(dir))
		before := bisim.ComputeCalls()
		cert, err := s.TransferCertificate(ctx, podc.RingTopology(), 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if tamper {
			want = classes
		}
		if calls := bisim.ComputeCalls() - before; calls != int64(want) {
			t.Errorf("tampered=%v: %d refinements, want %d", tamper, calls, want)
		}
		gotJSON, err := json.Marshal(cert)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("tampered=%v: certificate differs from BuildTransferCertificate's", tamper)
		}
	}
}

// TestSessionStoreRejectsHollowCertificate: a stored certificate whose
// entry is intact (matching payload_sha256) but which does not certify the
// requested pair — no pairs, another family's name, or a valid certificate
// for other sizes — fails validation and the pair is decided again instead
// of the entry being served.
func TestSessionStoreRejectsHollowCertificate(t *testing.T) {
	ctx := context.Background()
	ring := podc.RingTopology()
	key := store.Key{
		Kind: "certificate", Topology: ring.Name(), Small: 3, Large: 4,
		Atoms: ring.Atoms(), ReachableOnly: true,
	}
	other, err := podc.BuildTransferCertificate(ctx, ring.Family(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	otherJSON, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string]string{
		"empty pairs":  `{"family":"ring","small_size":3,"large_size":4,"one_props":["t"],"pairs":[]}`,
		"wrong family": `{"family":"star","small_size":3,"large_size":4}`,
		"other sizes":  string(otherJSON),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(key, json.RawMessage(payload)); err != nil {
				t.Fatal(err)
			}
			s := podc.NewSession(podc.WithStore(dir))
			left, right, err := podc.SessionIndexActions(ctx, s, ring, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			classes := orbitClasses(t, ring.IndexRelation(3, 4), left, right)
			before := bisim.ComputeCalls()
			cert, err := s.TransferCertificate(ctx, ring, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			if calls := bisim.ComputeCalls() - before; calls != int64(classes) {
				t.Errorf("%d refinements for %d orbit classes of index pairs: the hollow certificate was served, not decided again", calls, classes)
			}
			if err := cert.Validate(ring.Family()); err != nil {
				t.Fatalf("decided certificate invalid: %v", err)
			}
			if cert.FamilyName() != ring.Name() || cert.SmallSize() != 3 || cert.LargeSize() != 4 {
				t.Errorf("certificate for %s %d vs %d, want %s 3 vs 4", cert.FamilyName(), cert.SmallSize(), cert.LargeSize(), ring.Name())
			}
		})
	}
}

package podc_test

import (
	"context"
	"testing"

	"repro/pkg/podc"
)

// TestWithEvidenceIndexedCorrespond: the refuted M_2 vs M_3 ring
// correspondence carries confirmed evidence when requested, and none when
// not.
func TestWithEvidenceIndexedCorrespond(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession()
	m2, err := s.Instance(ctx, podc.RingTopology(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := s.Instance(ctx, podc.RingTopology(), 3)
	if err != nil {
		t.Fatal(err)
	}
	in := podc.RingTopology().IndexRelation(2, 3)
	corr, err := podc.IndexedCorrespond(ctx, m2, m3, in,
		podc.WithAtoms("t"), podc.WithReachableOnly(), podc.WithEvidence())
	if err != nil {
		t.Fatal(err)
	}
	if corr.Corresponds() {
		t.Fatal("M_2 and M_3 must not indexed-correspond")
	}
	ev := corr.Evidence()
	if ev == nil {
		t.Fatal("WithEvidence produced no evidence for a failed correspondence")
	}
	if !ev.Confirmed || !ev.Formula.IsValid() {
		t.Fatalf("evidence not confirmed: %s", ev)
	}
	// Without the option, no evidence is attached.
	plain, err := podc.IndexedCorrespond(ctx, m2, m3, in,
		podc.WithAtoms("t"), podc.WithReachableOnly())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Evidence() != nil {
		t.Error("evidence attached without WithEvidence")
	}
}

// TestWithEvidenceBuggyRing: the acceptance case — a BuildBuggyRing ring
// fails its correspondence with the correct cutoff instance, and the
// returned evidence is replay-confirmed.
func TestWithEvidenceBuggyRing(t *testing.T) {
	ctx := context.Background()
	correct, err := podc.NewSession().Instance(ctx, podc.RingTopology(), podc.RingCutoffSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{3, 4, 5} {
		buggy, err := podc.BuildBuggyRing(r)
		if err != nil {
			t.Fatal(err)
		}
		corr, err := podc.IndexedCorrespond(ctx, correct, buggy, podc.RingTopology().IndexRelation(podc.RingCutoffSize, r),
			podc.WithAtoms(podc.RingTokenAtom), podc.WithReachableOnly(), podc.WithEvidence())
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		ev := corr.Evidence()
		if ev == nil {
			t.Fatalf("r=%d: correct and buggy rings unexpectedly correspond", r)
		}
		if !ev.Confirmed {
			t.Fatalf("r=%d: evidence not confirmed: %s", r, ev)
		}
	}
}

// TestWithEvidenceDecideCorrespondence: the topology dispatch point
// attaches evidence for the ring refutation and none for a holding star
// correspondence.
func TestWithEvidenceDecideCorrespondence(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession()
	corr, err := s.Correspondence(ctx, podc.RingTopology(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if corr.Corresponds() {
		t.Fatal("ring M_2 vs M_4 must not correspond")
	}
	if ev, err := s.CorrespondenceEvidence(ctx, podc.RingTopology(), 2, 4); err != nil || ev == nil || !ev.Confirmed {
		t.Fatalf("expected confirmed evidence, got %s (err %v)", ev, err)
	}
	ok, err := s.Correspondence(ctx, podc.StarTopology(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := s.CorrespondenceEvidence(ctx, podc.StarTopology(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Corresponds() || ev != nil {
		t.Fatalf("star M_3 vs M_5 should correspond without evidence, got %v / %s", ok.Corresponds(), ev)
	}
}

// TestSessionCorrespondenceEvidence: the session serves evidence from its
// caches.
func TestSessionCorrespondenceEvidence(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession(podc.WithWorkers(2))
	ev, err := s.CorrespondenceEvidence(ctx, podc.RingTopology(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || !ev.Confirmed {
		t.Fatalf("expected confirmed evidence for ring 2 vs 4, got %s", ev)
	}
	ok, err := s.CorrespondenceEvidence(ctx, podc.RingTopology(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok != nil {
		t.Fatalf("no evidence expected for the holding 3 vs 4 correspondence, got %s", ok)
	}
}

// TestVerifierExplain: false universal verdicts come back with a
// counterexample trace, true existential ones with a witness.
func TestVerifierExplain(t *testing.T) {
	ctx := context.Background()
	rg, err := podc.NewSession().Instance(ctx, podc.RingTopology(), 3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := podc.NewVerifier(ctx, rg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := v.Explain(ctx, podc.MustParseFormula("forall i . AG !c[i]"))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Holds {
		t.Fatal("some process does reach its critical section")
	}
	if ex.Trace == nil {
		t.Fatalf("expected a counterexample trace, got %+v", ex)
	}
	ex, err = v.Explain(ctx, podc.MustParseFormula("E(true U c[2])"))
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Holds || ex.Trace == nil {
		t.Fatalf("expected a witness trace for EF c[2], got %+v", ex)
	}
}

package podc_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ring"
	"repro/pkg/podc"
)

func TestVerifierRunsThePaperWorkflowFromTheCutoff(t *testing.T) {
	report, err := podc.VerifyFamily(context.Background(), podc.RingTopology().Family(), podc.RingProperties(),
		podc.WithSmallSize(podc.RingCutoffSize),
		podc.WithCorrespondenceSizes(4, 5),
	)
	if err != nil {
		t.Fatalf("VerifyFamily: %v", err)
	}
	if !report.AllHold() {
		t.Error("all four Section 5 properties should hold on the cutoff instance")
	}
	for _, res := range report.Results() {
		if !res.Transferable {
			t.Errorf("property %s should be transferable: %v", res.Name, res.RestrictionIssues)
		}
	}
	if got := report.VerifiedSizes(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("VerifiedSizes = %v, want [4 5]", got)
	}
	summary := report.Summary()
	wantStates := fmt.Sprintf("n=%d (%d states", podc.RingCutoffSize, ring.ExpectedReachable(podc.RingCutoffSize))
	for _, want := range []string{"family ring:", wantStates, "holds", "transfers by Theorem 5", "correspond"} {
		if !strings.Contains(summary, want) {
			t.Errorf("Summary missing %q:\n%s", want, summary)
		}
	}
}

func TestVerifierDetectsTheTwoProcessCutoffFailure(t *testing.T) {
	specs := append(podc.RingProperties(), podc.Spec{Name: "distinguishing", Formula: podc.RingDistinguishingFormula()})
	report, err := podc.VerifyFamily(context.Background(), podc.RingTopology().Family(), specs,
		podc.WithSmallSize(2),
		podc.WithCorrespondenceSizes(3, 4),
	)
	if err != nil {
		t.Fatalf("VerifyFamily: %v", err)
	}
	for _, c := range report.Correspondences() {
		if c.Corresponds {
			t.Errorf("M_2 must not correspond to M_%d", c.Size)
		}
	}
	if got := report.VerifiedSizes(); len(got) != 0 {
		t.Errorf("VerifiedSizes = %v, want none", got)
	}
	// The distinguishing formula fails on M_2 even though it is restricted —
	// which is exactly why nothing can be concluded about larger rings from
	// the two-process instance.
	var dist *podc.SpecResult
	results := report.Results()
	for i := range results {
		if results[i].Name == "distinguishing" {
			dist = &results[i]
		}
	}
	if dist == nil {
		t.Fatal("missing result for the distinguishing formula")
	}
	if dist.Holds {
		t.Error("the distinguishing formula must fail on M_2")
	}
	if !dist.Transferable {
		t.Error("the distinguishing formula is in the restricted fragment")
	}
	if !strings.Contains(report.Summary(), "DO NOT correspond") {
		t.Errorf("summary should flag the failed correspondence:\n%s", report.Summary())
	}
}

func TestVerifierRejectsUnrestrictedSpecs(t *testing.T) {
	ctx := context.Background()
	specs := []podc.Spec{{Name: "nexttime", Formula: podc.MustParseFormula("forall i . AG (AX t[i])")}}
	report, err := podc.VerifyFamily(ctx, podc.RingTopology().Family(), specs, podc.WithSmallSize(2))
	if err != nil {
		t.Fatalf("VerifyFamily: %v", err)
	}
	res := report.Results()[0]
	if res.Transferable {
		t.Error("a formula with nexttime must not be marked transferable")
	}
	if len(res.RestrictionIssues) == 0 {
		t.Error("restriction issues should be reported")
	}

	// With the check disabled the formula is treated as transferable (the
	// caller takes responsibility).
	report2, err := podc.VerifyFamily(ctx, podc.RingTopology().Family(), specs,
		podc.WithSmallSize(2), podc.WithoutRestrictionCheck())
	if err != nil {
		t.Fatal(err)
	}
	if !report2.Results()[0].Transferable {
		t.Error("WithoutRestrictionCheck should mark the spec transferable")
	}
}

func TestVerifierErrors(t *testing.T) {
	ctx := context.Background()
	ringFamily := podc.RingTopology().Family()
	specs := podc.RingProperties()
	if _, err := podc.VerifyFamily(ctx, nil, specs); err == nil {
		t.Error("nil family should be rejected")
	}
	if _, err := podc.VerifyFamily(ctx, ringFamily, []podc.Spec{{Name: "empty"}}, podc.WithSmallSize(2)); err == nil {
		t.Error("spec without formula should be rejected")
	}
	if _, err := podc.VerifyFamily(ctx, ringFamily, []podc.Spec{{Name: "free-var", Formula: podc.MustParseFormula("d[i]")}}, podc.WithSmallSize(2)); err == nil {
		t.Error("formula with a free index variable should be rejected by the checker")
	}
	// A family without a builder fails.
	noBuilder := &podc.FamilyFunc{FamilyName: "broken", AtomNames: []string{"t"}}
	if _, err := podc.VerifyFamily(ctx, noBuilder, specs, podc.WithSmallSize(2)); err == nil {
		t.Error("family without a builder should fail")
	}
	// A builder that returns neither an instance nor an error fails with a
	// named error, at the small instance and at a correspondence size.
	nilBuilder := &podc.FamilyFunc{
		FamilyName: "hollow",
		BuildFunc:  func(int) (*podc.Structure, error) { return nil, nil },
		AtomNames:  []string{"t"},
	}
	if _, err := podc.VerifyFamily(ctx, nilBuilder, specs, podc.WithSmallSize(2)); err == nil || !strings.Contains(err.Error(), "built a nil instance") {
		t.Errorf("nil instance: VerifyFamily error %v, want a nil-instance error", err)
	}
	if _, err := podc.BuildTransferCertificate(ctx, nilBuilder, 2, 3); err == nil || !strings.Contains(err.Error(), "built a nil instance") {
		t.Errorf("nil instance: BuildTransferCertificate error %v, want a nil-instance error", err)
	}
	// Oversized correspondence instance propagates the builder's refusal.
	if _, err := podc.VerifyFamily(ctx, ringFamily, specs, podc.WithSmallSize(3), podc.WithCorrespondenceSizes(50)); err == nil {
		t.Error("an instance beyond the explicit limit should fail loudly")
	}
}

// TestVerifyFamilyMatchesSession is the differential between the two
// routes to the paper's method: VerifyFamily over a topology's Family,
// which decides every index pair on its own, and the Session, which
// decides one pair per orbit class on its cached instances and checks the
// specifications with its orbit-aware verifier.  Every built-in topology is
// verified from its cutoff against the cutoff and the next two valid
// sizes, and the ring from size 2 as the case that does not correspond, at
// the default worker count and at one worker.
func TestVerifyFamilyMatchesSession(t *testing.T) {
	type run struct {
		topo  podc.Topology
		small int
	}
	var runs []run
	for _, topo := range podc.Topologies() {
		runs = append(runs, run{topo, topo.CutoffSize()})
	}
	runs = append(runs, run{podc.RingTopology(), 2})
	for _, workers := range []struct {
		name string
		opts []podc.Option
	}{{"workers=default", nil}, {"workers=1", []podc.Option{podc.WithWorkers(1)}}} {
		t.Run(workers.name, func(t *testing.T) {
			ctx := context.Background()
			s := podc.NewSession(workers.opts...)
			for _, r := range runs {
				var sizes []int
				for n := r.small; len(sizes) < 3; n++ {
					if r.topo.ValidSize(n) == nil {
						sizes = append(sizes, n)
					}
				}
				opts := append([]podc.Option{podc.WithSmallSize(r.small), podc.WithCorrespondenceSizes(sizes...)}, workers.opts...)
				specs := r.topo.Specs()
				report, err := podc.VerifyFamily(ctx, r.topo.Family(), specs, opts...)
				if err != nil {
					t.Fatalf("%s from %d: VerifyFamily: %v", r.topo, r.small, err)
				}
				verdicts := report.Correspondences()
				if len(verdicts) != len(sizes) {
					t.Fatalf("%s from %d: %d size verdicts for sizes %v", r.topo, r.small, len(verdicts), sizes)
				}
				for _, v := range verdicts {
					corr, err := s.Correspondence(ctx, r.topo, r.small, v.Size)
					if err != nil {
						t.Fatalf("%s %d~%d: %v", r.topo, r.small, v.Size, err)
					}
					if v.Corresponds != corr.Corresponds() || v.MaxDegree != corr.MaxDegree() || v.IndexPairs != len(corr.IndexRelation()) {
						t.Errorf("%s %d~%d: VerifyFamily (corresponds %v, max degree %d, %d pairs), Session (%v, %d, %d)",
							r.topo, r.small, v.Size, v.Corresponds, v.MaxDegree, v.IndexPairs,
							corr.Corresponds(), corr.MaxDegree(), len(corr.IndexRelation()))
					}
				}
				verifier, err := s.Verifier(ctx, r.topo, r.small)
				if err != nil {
					t.Fatal(err)
				}
				results := report.Results()
				for i, spec := range specs {
					holds, err := verifier.Check(ctx, spec.Formula)
					if err != nil {
						t.Fatalf("%s n=%d %s: %v", r.topo, r.small, spec.Name, err)
					}
					if results[i].Holds != holds {
						t.Errorf("%s n=%d %s: VerifyFamily holds=%v, Session verifier %v", r.topo, r.small, spec.Name, results[i].Holds, holds)
					}
				}
			}
		})
	}
}

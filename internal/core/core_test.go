package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/ring"
)

// testFamily is a function-based Family: build constructs M_n (a nil
// build makes every instance fail), in is the IN relation and ones the
// "exactly one" atoms.
type testFamily struct {
	name  string
	build func(n int) (*kripke.Structure, error)
	in    func(small, n int) []bisim.IndexPair
	ones  []string
}

func (f *testFamily) Name() string { return f.name }

func (f *testFamily) Instance(n int) (*kripke.Structure, error) {
	if f.build == nil {
		return nil, fmt.Errorf("family %s has no instance builder", f.name)
	}
	return f.build(n)
}

func (f *testFamily) IndexRelation(small, n int) []bisim.IndexPair { return f.in(small, n) }

func (f *testFamily) OneProps() []string { return f.ones }

// ringFamily adapts the token ring of Section 5 to the core.Family
// interface.
func ringFamily() Family {
	return &testFamily{
		name: "token-ring",
		build: func(n int) (*kripke.Structure, error) {
			inst, err := ring.Build(n)
			if err != nil {
				return nil, err
			}
			return inst.M, nil
		},
		in:   ring.CutoffIndexRelation,
		ones: []string{ring.PropToken},
	}
}

func ringSpecs() []Spec {
	var specs []Spec
	for _, nf := range ring.Properties() {
		specs = append(specs, Spec{Name: nf.Name, Formula: nf.Formula})
	}
	return specs
}

func TestVerifierRunsThePaperWorkflowFromTheCutoff(t *testing.T) {
	v, err := NewVerifier(ringFamily(), Options{
		SmallSize:           ring.CutoffSize,
		CorrespondenceSizes: []int{4, 5},
	})
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	report, err := v.Run(context.Background(), ringSpecs())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !report.AllHold() {
		t.Error("all four Section 5 properties should hold on the cutoff instance")
	}
	for _, res := range report.Results {
		if !res.Transferable {
			t.Errorf("property %s should be transferable: %v", res.Spec.Name, res.RestrictionIssues)
		}
	}
	if got := report.VerifiedSizes(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("VerifiedSizes = %v, want [4 5]", got)
	}
	if report.SmallStates != ring.ExpectedReachable(ring.CutoffSize) {
		t.Errorf("SmallStates = %d", report.SmallStates)
	}
	summary := report.Summary()
	for _, want := range []string{"token-ring", "holds", "transfers by Theorem 5", "correspond"} {
		if !strings.Contains(summary, want) {
			t.Errorf("Summary missing %q:\n%s", want, summary)
		}
	}
}

func TestVerifierDetectsTheTwoProcessCutoffFailure(t *testing.T) {
	v, err := NewVerifier(ringFamily(), Options{
		SmallSize:           2,
		CorrespondenceSizes: []int{3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := append(ringSpecs(), Spec{Name: "distinguishing", Formula: ring.DistinguishingFormula()})
	report, err := v.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, c := range report.Correspondence {
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
	var dist *Result
	for i := range report.Results {
		if report.Results[i].Spec.Name == "distinguishing" {
			dist = &report.Results[i]
		}
	}
	if dist == nil {
		t.Fatal("missing result for the distinguishing formula")
	}
	if dist.HoldsSmall {
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
	v, err := NewVerifier(ringFamily(), Options{SmallSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	report, err := v.Run(context.Background(), []Spec{{Name: "nexttime", Formula: logic.MustParse("forall i . AG (AX t[i])")}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := report.Results[0]
	if res.Transferable {
		t.Error("a formula with nexttime must not be marked transferable")
	}
	if len(res.RestrictionIssues) == 0 {
		t.Error("restriction issues should be reported")
	}

	// With the check disabled the formula is treated as transferable (the
	// caller takes responsibility).
	v2, err := NewVerifier(ringFamily(), Options{SmallSize: 2, SkipRestrictionCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	report2, err := v2.Run(context.Background(), []Spec{{Name: "nexttime", Formula: logic.MustParse("forall i . AG (AX t[i])")}})
	if err != nil {
		t.Fatal(err)
	}
	if !report2.Results[0].Transferable {
		t.Error("SkipRestrictionCheck should mark the spec transferable")
	}
}

func TestVerifierErrors(t *testing.T) {
	if _, err := NewVerifier(nil, Options{}); err == nil {
		t.Error("nil family should be rejected")
	}
	v, err := NewVerifier(ringFamily(), Options{SmallSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(context.Background(), []Spec{{Name: "empty"}}); err == nil {
		t.Error("spec without formula should be rejected")
	}
	if _, err := v.Run(context.Background(), []Spec{{Name: "free-var", Formula: logic.MustParse("d[i]")}}); err == nil {
		t.Error("formula with a free index variable should be rejected by the checker")
	}
	// A family whose builder fails propagates the error.
	broken := &testFamily{name: "broken"}
	vb, err := NewVerifier(broken, Options{SmallSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vb.Run(context.Background(), ringSpecs()); err == nil {
		t.Error("family without a builder should fail")
	}
	// Oversized correspondence instance propagates the builder's refusal.
	vc, err := NewVerifier(ringFamily(), Options{SmallSize: 3, CorrespondenceSizes: []int{50}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vc.Run(context.Background(), ringSpecs()); err == nil {
		t.Error("an instance beyond the explicit limit should fail loudly")
	}
}

func TestTransferCertificateRoundTrip(t *testing.T) {
	family := ringFamily()
	cert, err := BuildCertificate(context.Background(), family, ring.CutoffSize, 4)
	if err != nil {
		t.Fatalf("BuildCertificate: %v", err)
	}
	if err := cert.Validate(family); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The certificate survives JSON serialisation.
	data, err := json.Marshal(cert)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var decoded TransferCertificate
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if err := decoded.Validate(family); err != nil {
		t.Fatalf("decoded certificate fails validation: %v", err)
	}
	// Corrupting a relation makes validation fail.
	if len(decoded.Pairs) == 0 {
		t.Fatal("certificate has no pairs")
	}
	rel := decoded.Pairs[0].Relation
	pairs := rel.Pairs()
	rel.Remove(pairs[0].S, pairs[0].T)
	if err := decoded.Validate(family); err == nil {
		t.Error("corrupted certificate should fail validation")
	}
	// No certificate exists between M_2 and larger rings.
	if _, err := BuildCertificate(context.Background(), family, 2, 4); err == nil {
		t.Error("BuildCertificate must refuse the non-corresponding pair (2,4)")
	}
}

// TestValidateRejectsHollowCertificates: a certificate must name the
// family and its atoms and list exactly the family's index relation, in
// order, before its relations are checked; otherwise a certificate with
// fewer (or no) pairs would validate without certifying anything.
func TestValidateRejectsHollowCertificates(t *testing.T) {
	family := ringFamily()
	for name, hollow := range map[string]func(*TransferCertificate){
		"empty pairs":       func(c *TransferCertificate) { c.Pairs = []CertifiedIndexPair{} },
		"no pairs":          func(c *TransferCertificate) { c.Pairs = nil },
		"wrong family":      func(c *TransferCertificate) { c.Family = "star" },
		"dropped one_props": func(c *TransferCertificate) { c.OneProps = nil },
		"one missing pair":  func(c *TransferCertificate) { c.Pairs = c.Pairs[:len(c.Pairs)-1] },
		"pairs reordered": func(c *TransferCertificate) {
			c.Pairs[0], c.Pairs[1] = c.Pairs[1], c.Pairs[0]
		},
		"null relation": func(c *TransferCertificate) { c.Pairs[0].Relation = nil },
	} {
		t.Run(name, func(t *testing.T) {
			cert, err := BuildCertificate(context.Background(), family, ring.CutoffSize, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := cert.Validate(family); err != nil {
				t.Fatalf("intact certificate: %v", err)
			}
			hollow(cert)
			// Round-trip through JSON, as a stored certificate arrives.
			data, err := json.Marshal(cert)
			if err != nil {
				t.Fatal(err)
			}
			var decoded TransferCertificate
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			if err := decoded.Validate(family); err == nil {
				t.Errorf("hollow certificate validated: family %q, one_props %v, %d pairs",
					decoded.Family, decoded.OneProps, len(decoded.Pairs))
			}
		})
	}
}

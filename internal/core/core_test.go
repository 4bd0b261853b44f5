package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/ring"
)

// ringName and ringOneProps name the token ring of Section 5 and its
// "exactly one" atoms, the family the certificates below are for.
const ringName = "token-ring"

var ringOneProps = []string{ring.PropToken}

// ringInstance builds the ring M_n.
func ringInstance(n int) (*kripke.Structure, error) {
	inst, err := ring.Build(n)
	if err != nil {
		return nil, err
	}
	return inst.M, nil
}

// buildRingCertificate decides the ring's cutoff correspondence between
// M_small and M_large pair by pair and packages it as a certificate.
func buildRingCertificate(small, large int) (*TransferCertificate, error) {
	sm, err := ringInstance(small)
	if err != nil {
		return nil, err
	}
	lg, err := ringInstance(large)
	if err != nil {
		return nil, err
	}
	in := ring.CutoffIndexRelation(small, large)
	res, err := bisim.IndexedCompute(context.Background(), sm, lg, in, bisim.Options{OneProps: ringOneProps, ReachableOnly: true})
	if err != nil {
		return nil, err
	}
	return CertificateFrom(ringName, small, large, ringOneProps, in, res)
}

// validateRing validates c as a certificate of the ring family.
func validateRing(c *TransferCertificate) error {
	return c.Validate(ringName, ringOneProps, ring.CutoffIndexRelation(c.SmallSize, c.LargeSize), ringInstance)
}

func TestTransferCertificateRoundTrip(t *testing.T) {
	cert, err := buildRingCertificate(ring.CutoffSize, 4)
	if err != nil {
		t.Fatalf("buildRingCertificate: %v", err)
	}
	if err := validateRing(cert); err != nil {
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
	if err := validateRing(&decoded); err != nil {
		t.Fatalf("decoded certificate fails validation: %v", err)
	}
	// Corrupting a relation makes validation fail.
	if len(decoded.Pairs) == 0 {
		t.Fatal("certificate has no pairs")
	}
	rel := decoded.Pairs[0].Relation
	pairs := rel.Pairs()
	rel.Remove(pairs[0].S, pairs[0].T)
	if err := validateRing(&decoded); err == nil {
		t.Error("corrupted certificate should fail validation")
	}
	// No certificate exists between M_2 and larger rings.
	if _, err := buildRingCertificate(2, 4); err == nil {
		t.Error("CertificateFrom must refuse the non-corresponding pair (2,4)")
	}
}

// TestValidateRejectsHollowCertificates: a certificate must name the
// family and its atoms and list exactly the family's index relation, in
// order, before its relations are checked; otherwise a certificate with
// fewer (or no) pairs would validate without certifying anything.
func TestValidateRejectsHollowCertificates(t *testing.T) {
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
			cert, err := buildRingCertificate(ring.CutoffSize, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := validateRing(cert); err != nil {
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
			if err := validateRing(&decoded); err == nil {
				t.Errorf("hollow certificate validated: family %q, one_props %v, %d pairs",
					decoded.Family, decoded.OneProps, len(decoded.Pairs))
			}
		})
	}
}

// Package core holds the portable record of the paper's transfer step.  The
// verification methodology — model check a small instance, establish the
// indexed correspondence with larger instances (Section 4), and transfer
// closed restricted ICTL* by Theorem 5 — runs in pkg/podc (VerifyFamily,
// BuildTransferCertificate and the Session) over internal/family's decision
// route.  What stays here is the evidence for the second step:
// TransferCertificate, a serialisable list of the per-index-pair relations
// of a decided correspondence, which CertificateFrom packages and Validate
// re-checks clause by clause without re-running the decision procedure.
package core

import (
	"fmt"
	"slices"

	"repro/internal/bisim"
	"repro/internal/kripke"
)

// TransferCertificate is a portable record of an established correspondence:
// the per-index-pair relations with their degrees.  A certificate can be
// stored, shipped and re-validated with Validate, which re-runs bisim.Check
// (cheap) rather than the full decision procedure.
type TransferCertificate struct {
	Family    string               `json:"family"`
	SmallSize int                  `json:"small_size"`
	LargeSize int                  `json:"large_size"`
	OneProps  []string             `json:"one_props,omitempty"`
	Pairs     []CertifiedIndexPair `json:"pairs"`
}

// CertifiedIndexPair is one (i, i') entry of a TransferCertificate.
type CertifiedIndexPair struct {
	I        int             `json:"i"`
	I2       int             `json:"i2"`
	Relation *bisim.Relation `json:"relation"`
}

// CertificateFrom packages a decided indexed correspondence between the
// family's instances smallSize and largeSize as a certificate, one entry
// per pair of in (the index relation res was decided over), in in's order.
// It fails when res does not correspond: no certificate exists.
func CertificateFrom(familyName string, smallSize, largeSize int, oneProps []string, in []bisim.IndexPair, res *bisim.IndexedResult) (*TransferCertificate, error) {
	if !res.Corresponds() {
		return nil, fmt.Errorf("core: %s instances %d and %d do not correspond; no certificate exists",
			familyName, smallSize, largeSize)
	}
	cert := &TransferCertificate{
		Family:    familyName,
		SmallSize: smallSize,
		LargeSize: largeSize,
		OneProps:  oneProps,
	}
	// One pass materialises the transported pairs with one transpose per
	// basis; the certificate then lists them in in's order.
	rels := make(map[bisim.IndexPair]*bisim.Relation, res.Len())
	for p, pr := range res.Pairs {
		rels[p] = pr.Relation
	}
	for _, p := range in {
		rel, ok := rels[p]
		if !ok {
			return nil, fmt.Errorf("core: %s %d vs %d: index pair (%d,%d) was not decided", familyName, smallSize, largeSize, p.I, p.I2)
		}
		cert.Pairs = append(cert.Pairs, CertifiedIndexPair{I: p.I, I2: p.I2, Relation: rel})
	}
	return cert, nil
}

// Validate re-checks the certificate against the instances that instance
// builds.  It returns nil when the certificate names family and its atoms
// oneProps, lists exactly the index relation in (the family's, between the
// certificate's two sizes) in CertificateFrom's order, and every per-index
// relation is a valid correspondence relation between the reductions.  A
// certificate that leaves out pairs or atoms would otherwise validate
// without certifying anything, so those checks run before any instance is
// built.
func (c *TransferCertificate) Validate(family string, oneProps []string, in []bisim.IndexPair, instance func(n int) (*kripke.Structure, error)) error {
	if c.Family != family {
		return fmt.Errorf("core: certificate is for family %q, not %q", c.Family, family)
	}
	if !slices.Equal(c.OneProps, oneProps) {
		return fmt.Errorf("core: certificate for %s %d vs %d has one_props %v, the family's are %v",
			c.Family, c.SmallSize, c.LargeSize, c.OneProps, oneProps)
	}
	if len(c.Pairs) != len(in) {
		return fmt.Errorf("core: certificate for %s %d vs %d has %d index pairs, the index relation %d",
			c.Family, c.SmallSize, c.LargeSize, len(c.Pairs), len(in))
	}
	for k, p := range c.Pairs {
		if p.I != in[k].I || p.I2 != in[k].I2 {
			return fmt.Errorf("core: certificate for %s %d vs %d: entry %d is index pair (%d,%d), the index relation's is (%d,%d)",
				c.Family, c.SmallSize, c.LargeSize, k, p.I, p.I2, in[k].I, in[k].I2)
		}
		if p.Relation == nil {
			return fmt.Errorf("core: certificate for %s %d vs %d: index pair (%d,%d) has no relation",
				c.Family, c.SmallSize, c.LargeSize, p.I, p.I2)
		}
	}
	small, err := instance(c.SmallSize)
	if err != nil {
		return err
	}
	large, err := instance(c.LargeSize)
	if err != nil {
		return err
	}
	opts := bisim.Options{OneProps: c.OneProps, ReachableOnly: true}
	for _, p := range c.Pairs {
		violations := bisim.Check(small.ReduceNormalized(p.I), large.ReduceNormalized(p.I2), p.Relation, opts)
		if len(violations) > 0 {
			return fmt.Errorf("core: certificate for %s %d vs %d fails at index pair (%d,%d): %v",
				c.Family, c.SmallSize, c.LargeSize, p.I, p.I2, violations[0])
		}
	}
	return nil
}

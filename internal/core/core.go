// Package core ties the pieces of the library into the paper's verification
// methodology: to verify a closed restricted ICTL* specification for a whole
// family of networks of identical processes,
//
//  1. model check the specification on a small instance (Section 5 uses the
//     two-process ring),
//  2. establish the indexed correspondence between the small instance and
//     larger instances (algorithmically for sizes that fit in memory, by a
//     certificate — e.g. the rank-based relation of the Appendix — for sizes
//     that do not), and
//  3. conclude by the ICTL* correspondence theorem (Theorem 5) that the
//     specification holds for every size covered by step 2.
//
// The package exposes a Family abstraction (a generator of instances indexed
// by size), a Verifier that runs the three steps and produces a Report, and
// TransferCertificate, a serialisable record of why a result transfers.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
)

// Family describes a parameterized family of networks {M_n}.
type Family interface {
	// Name identifies the family.
	Name() string
	// Instance builds the Kripke structure M_n.  Implementations should
	// return an error (rather than exhausting memory) for sizes that cannot
	// be built explicitly.
	Instance(n int) (*kripke.Structure, error)
	// IndexRelation returns the IN relation between the index sets of the
	// small instance M_small and a larger instance M_n, as required by the
	// indexed correspondence of Section 4.
	IndexRelation(small, n int) []bisim.IndexPair
	// OneProps lists the indexed propositions P whose "exactly one" atoms
	// O_i P_i are part of the family's specification vocabulary.
	OneProps() []string
}

// Spec is a named specification to verify.
type Spec struct {
	Name    string
	Formula logic.Formula
}

// Options configures a Verifier run.
type Options struct {
	// SmallSize is the size of the instance that is model checked
	// exhaustively (the paper uses 2).
	SmallSize int
	// CorrespondenceSizes are the sizes for which the indexed correspondence
	// with the small instance is established algorithmically.
	CorrespondenceSizes []int
	// SkipRestrictionCheck disables the ICTL* well-formedness check.  The
	// check exists because Theorem 5 only covers the restricted logic;
	// disabling it is useful for experiments that deliberately step outside
	// the fragment.
	SkipRestrictionCheck bool
}

// Result records the verdict for one specification.
type Result struct {
	Spec       Spec
	HoldsSmall bool
	// Transferable reports whether the formula is in the restricted ICTL*
	// fragment, so that Theorem 5 applies to it.
	Transferable bool
	// RestrictionIssues lists why the formula is not transferable (empty
	// when Transferable).
	RestrictionIssues []string
}

// CorrespondenceRecord records the outcome of step 2 for one size.
type CorrespondenceRecord struct {
	Size        int
	Corresponds bool
	IndexPairs  int
	// MaxDegree is the largest minimal degree over all index-pair
	// correspondences (an indication of how much stuttering the larger ring
	// needs).
	MaxDegree int
	Elapsed   time.Duration
}

// Report is the outcome of Verifier.Run.
type Report struct {
	Family           string
	SmallSize        int
	SmallStates      int
	SmallTransitions int
	Results          []Result
	Correspondence   []CorrespondenceRecord
	Elapsed          time.Duration
}

// VerifiedSizes returns the sizes for which every transferable specification
// that holds on the small instance is guaranteed (by Theorem 5) to hold.
func (r *Report) VerifiedSizes() []int {
	var out []int
	for _, c := range r.Correspondence {
		if c.Corresponds {
			out = append(out, c.Size)
		}
	}
	sort.Ints(out)
	return out
}

// AllHold reports whether every specification holds on the small instance.
func (r *Report) AllHold() bool {
	for _, res := range r.Results {
		if !res.HoldsSmall {
			return false
		}
	}
	return len(r.Results) > 0
}

// Verifier runs the paper's methodology for one family.
type Verifier struct {
	family Family
	opts   Options
}

// NewVerifier returns a Verifier for the family.
func NewVerifier(family Family, opts Options) (*Verifier, error) {
	if family == nil {
		return nil, fmt.Errorf("core: nil family")
	}
	if opts.SmallSize <= 0 {
		opts.SmallSize = 2
	}
	return &Verifier{family: family, opts: opts}, nil
}

// Run executes the three steps for the given specifications.  Cancelling
// ctx aborts the run at the next model-checking or correspondence boundary.
func (v *Verifier) Run(ctx context.Context, specs []Spec) (*Report, error) {
	start := time.Now()
	small, err := v.family.Instance(v.opts.SmallSize)
	if err != nil {
		return nil, fmt.Errorf("core: building small instance of %s: %w", v.family.Name(), err)
	}
	report := &Report{
		Family:           v.family.Name(),
		SmallSize:        v.opts.SmallSize,
		SmallStates:      small.NumStates(),
		SmallTransitions: small.NumTransitions(),
	}

	checker := mc.New(small)
	for _, spec := range specs {
		res := Result{Spec: spec}
		if spec.Formula == nil {
			return nil, fmt.Errorf("core: specification %q has no formula", spec.Name)
		}
		if !v.opts.SkipRestrictionCheck {
			violations := logic.CheckRestricted(spec.Formula)
			res.Transferable = len(violations) == 0
			for _, viol := range violations {
				res.RestrictionIssues = append(res.RestrictionIssues, viol.Error())
			}
		} else {
			res.Transferable = true
		}
		holds, err := checker.Holds(ctx, spec.Formula)
		if err != nil {
			return nil, fmt.Errorf("core: checking %q on %s (n=%d): %w", spec.Name, v.family.Name(), v.opts.SmallSize, err)
		}
		res.HoldsSmall = holds
		report.Results = append(report.Results, res)
	}

	bisimOpts := bisim.Options{OneProps: v.family.OneProps(), ReachableOnly: true}
	for _, size := range v.opts.CorrespondenceSizes {
		recStart := time.Now()
		large, err := v.family.Instance(size)
		if err != nil {
			return nil, fmt.Errorf("core: building instance %d of %s: %w", size, v.family.Name(), err)
		}
		in := v.family.IndexRelation(v.opts.SmallSize, size)
		idxRes, err := bisim.IndexedCompute(ctx, small, large, in, bisimOpts)
		if err != nil {
			return nil, fmt.Errorf("core: correspondence %d vs %d of %s: %w", v.opts.SmallSize, size, v.family.Name(), err)
		}
		rec := CorrespondenceRecord{
			Size:        size,
			Corresponds: idxRes.Corresponds(),
			IndexPairs:  len(in),
			MaxDegree:   idxRes.MaxDegree(),
			Elapsed:     time.Since(recStart),
		}
		report.Correspondence = append(report.Correspondence, rec)
	}
	report.Elapsed = time.Since(start)
	return report, nil
}

// Summary renders the report as human-readable text.
func (r *Report) Summary() string {
	out := fmt.Sprintf("family %s: small instance n=%d (%d states, %d transitions)\n",
		r.Family, r.SmallSize, r.SmallStates, r.SmallTransitions)
	for _, res := range r.Results {
		status := "FAILS"
		if res.HoldsSmall {
			status = "holds"
		}
		transfer := "transfers by Theorem 5"
		if !res.Transferable {
			transfer = "NOT transferable (outside restricted ICTL*)"
		}
		out += fmt.Sprintf("  spec %-30s %s on M_%d; %s\n", res.Spec.Name, status, r.SmallSize, transfer)
	}
	for _, c := range r.Correspondence {
		status := "correspond"
		if !c.Corresponds {
			status = "DO NOT correspond"
		}
		out += fmt.Sprintf("  M_%d and M_%d %s (%d index pairs, max degree %d, %v)\n",
			r.SmallSize, c.Size, status, c.IndexPairs, c.MaxDegree, c.Elapsed.Round(time.Millisecond))
	}
	if sizes := r.VerifiedSizes(); len(sizes) > 0 && r.AllHold() {
		out += fmt.Sprintf("  => every transferable spec above holds for sizes %v as well\n", sizes)
	}
	return out
}

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

// BuildCertificate runs the correspondence computation between the two
// instances and packages the resulting relations as a certificate.
func BuildCertificate(ctx context.Context, family Family, smallSize, largeSize int) (*TransferCertificate, error) {
	small, err := family.Instance(smallSize)
	if err != nil {
		return nil, err
	}
	large, err := family.Instance(largeSize)
	if err != nil {
		return nil, err
	}
	in := family.IndexRelation(smallSize, largeSize)
	opts := bisim.Options{OneProps: family.OneProps(), ReachableOnly: true}
	res, err := bisim.IndexedCompute(ctx, small, large, in, opts)
	if err != nil {
		return nil, err
	}
	return CertificateFrom(family.Name(), smallSize, largeSize, family.OneProps(), in, res)
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

// Validate re-checks the certificate against freshly built instances.  It
// returns nil when the certificate names the family and its atoms, lists
// exactly the family's index relation between the two sizes in
// CertificateFrom's order, and every per-index relation is a valid
// correspondence relation between the reductions.  A certificate that
// leaves out pairs or atoms would otherwise validate without certifying
// anything.
func (c *TransferCertificate) Validate(family Family) error {
	if c.Family != family.Name() {
		return fmt.Errorf("core: certificate is for family %q, not %q", c.Family, family.Name())
	}
	if !slices.Equal(c.OneProps, family.OneProps()) {
		return fmt.Errorf("core: certificate for %s %d vs %d has one_props %v, the family's are %v",
			c.Family, c.SmallSize, c.LargeSize, c.OneProps, family.OneProps())
	}
	in := family.IndexRelation(c.SmallSize, c.LargeSize)
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
	small, err := family.Instance(c.SmallSize)
	if err != nil {
		return err
	}
	large, err := family.Instance(c.LargeSize)
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

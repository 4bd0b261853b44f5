package podc

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/kripke"
	"repro/internal/mc"
)

// Family describes a parameterized family of networks {M_n} of identical
// processes — the objects the paper reasons about.
type Family interface {
	// Name identifies the family.
	Name() string
	// Build constructs the instance M_n.  Implementations should return an
	// error (rather than exhausting memory) for sizes that cannot be built
	// explicitly; that is precisely the situation the correspondence
	// theorem is for.
	Build(n int) (*Structure, error)
	// IndexRelation returns the IN relation between the index sets of the
	// small instance M_small and a larger instance M_n.
	IndexRelation(small, n int) []IndexPair
	// Atoms lists the indexed propositions P whose "exactly one" atoms
	// O_i P_i are part of the family's specification vocabulary.
	Atoms() []string
}

// FamilyFunc is a function-based Family implementation.
type FamilyFunc struct {
	// FamilyName identifies the family.
	FamilyName string
	// BuildFunc constructs the instance M_n (required).
	BuildFunc func(n int) (*Structure, error)
	// Indices returns the IN relation; when nil the paper's Section 5
	// default is used (first index with first index, last small index with
	// every remaining large index).
	Indices func(small, n int) []IndexPair
	// AtomNames lists the "exactly one" atoms of the vocabulary.
	AtomNames []string
}

// Name implements Family.
func (f *FamilyFunc) Name() string { return f.FamilyName }

// Build implements Family.
func (f *FamilyFunc) Build(n int) (*Structure, error) {
	if f.BuildFunc == nil {
		return nil, fmt.Errorf("podc: family %s has no builder", f.FamilyName)
	}
	return f.BuildFunc(n)
}

// IndexRelation implements Family.
func (f *FamilyFunc) IndexRelation(small, n int) []IndexPair {
	if f.Indices != nil {
		return f.Indices(small, n)
	}
	out := []IndexPair{{I: 1, I2: 1}}
	for i := 2; i <= n; i++ {
		out = append(out, IndexPair{I: small, I2: i})
	}
	return out
}

// Atoms implements Family.
func (f *FamilyFunc) Atoms() []string { return f.AtomNames }

// familyInstance builds f's instance M_n.  A user's Build is input from
// outside the library, so a nil instance is an error, not a later panic.
func familyInstance(f Family, n int) (*kripke.Structure, error) {
	m, err := f.Build(n)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("podc: family %s built a nil instance for n=%d", f.Name(), n)
	}
	return m.raw(), nil
}

// decideFamily builds f's instance M_largeSize and decides its indexed
// correspondence with small, f's instance M_smallSize, over f's index
// relation, which it returns with the result.  A Family supplies no index
// actions, so every index pair is decided on its own.
func decideFamily(ctx context.Context, f Family, small *kripke.Structure, smallSize, largeSize, workers int) ([]bisim.IndexPair, *bisim.IndexedResult, error) {
	large, err := familyInstance(f, largeSize)
	if err != nil {
		return nil, nil, fmt.Errorf("building instance %d of %s: %w", largeSize, f.Name(), err)
	}
	in := indexPairsToRaw(f.IndexRelation(smallSize, largeSize))
	res, err := bisim.IndexedCompute(ctx, small, large, in,
		bisim.Options{OneProps: f.Atoms(), ReachableOnly: true, Workers: workers})
	if err != nil {
		return nil, nil, fmt.Errorf("correspondence %d vs %d of %s: %w", smallSize, largeSize, f.Name(), err)
	}
	return in, res, nil
}

// Spec is a named specification to verify for a family.
type Spec struct {
	Name    string
	Formula Formula
}

// SpecResult records the verdict for one specification on the small
// instance.
type SpecResult struct {
	// Name echoes the specification's name.
	Name string `json:"name"`
	// Holds reports whether the formula holds on the small instance.
	Holds bool `json:"holds"`
	// Transferable reports whether the formula is in the restricted ICTL*
	// fragment, so that Theorem 5 applies to it.
	Transferable bool `json:"transferable"`
	// RestrictionIssues lists why the formula is not transferable (empty
	// when Transferable).
	RestrictionIssues []string `json:"restriction_issues,omitempty"`
}

// SizeVerdict records the outcome of the correspondence step for one size.
type SizeVerdict struct {
	Size        int           `json:"size"`
	Corresponds bool          `json:"corresponds"`
	IndexPairs  int           `json:"index_pairs"`
	MaxDegree   int           `json:"max_degree"`
	Elapsed     time.Duration `json:"elapsed_ns"`
}

// FamilyReport is the outcome of VerifyFamily.
type FamilyReport struct {
	family                        string
	smallSize                     int
	smallStates, smallTransitions int
	results                       []SpecResult
	sizes                         []SizeVerdict
}

// VerifyFamily runs the paper's three-step methodology for one family:
// model check the specifications on the small instance (WithSmallSize),
// establish the indexed correspondence with each larger instance
// (WithCorrespondenceSizes), and conclude by Theorem 5 that every
// transferable specification that holds on the small instance holds for
// every size whose correspondence was established.  Cancelling ctx aborts
// the run between (and inside) the individual checks.
func VerifyFamily(ctx context.Context, f Family, specs []Spec, opts ...Option) (*FamilyReport, error) {
	if f == nil {
		return nil, fmt.Errorf("podc: VerifyFamily: nil family")
	}
	cfg := buildConfig(opts)
	//lint:ctxloop spec validation only, bounded by the caller's spec list
	for _, s := range specs {
		if !s.Formula.IsValid() {
			return nil, fmt.Errorf("podc: VerifyFamily: specification %q has no formula", s.Name)
		}
	}
	smallSize := cfg.smallSize
	if smallSize <= 0 {
		smallSize = 2
	}
	small, err := familyInstance(f, smallSize)
	if err != nil {
		return nil, fmt.Errorf("podc: VerifyFamily: building small instance of %s: %w", f.Name(), err)
	}
	r := &FamilyReport{
		family:           f.Name(),
		smallSize:        smallSize,
		smallStates:      small.NumStates(),
		smallTransitions: small.NumTransitions(),
		results:          make([]SpecResult, 0, len(specs)),
		sizes:            make([]SizeVerdict, 0, len(cfg.correspondenceSizes)),
	}

	checker := mc.New(small)
	for _, s := range specs {
		res := SpecResult{Name: s.Name, Transferable: true}
		if !cfg.skipRestrictionCheck {
			res.RestrictionIssues = s.Formula.RestrictionIssues()
			res.Transferable = len(res.RestrictionIssues) == 0
		}
		if res.Holds, err = checker.Holds(ctx, s.Formula.raw()); err != nil {
			return nil, fmt.Errorf("podc: VerifyFamily: checking %q on %s (n=%d): %w", s.Name, f.Name(), smallSize, err)
		}
		r.results = append(r.results, res)
	}

	for _, size := range cfg.correspondenceSizes {
		start := time.Now()
		in, res, err := decideFamily(ctx, f, small, smallSize, size, cfg.workers)
		if err != nil {
			return nil, fmt.Errorf("podc: VerifyFamily: %w", err)
		}
		r.sizes = append(r.sizes, SizeVerdict{
			Size:        size,
			Corresponds: res.Corresponds(),
			IndexPairs:  len(in),
			MaxDegree:   res.MaxDegree(),
			Elapsed:     time.Since(start),
		})
	}
	return r, nil
}

// Summary renders the report as human-readable text.
func (r *FamilyReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "family %s: small instance n=%d (%d states, %d transitions)\n",
		r.family, r.smallSize, r.smallStates, r.smallTransitions)
	for _, res := range r.results {
		status := "FAILS"
		if res.Holds {
			status = "holds"
		}
		transfer := "transfers by Theorem 5"
		if !res.Transferable {
			transfer = "NOT transferable (outside restricted ICTL*)"
		}
		fmt.Fprintf(&b, "  spec %-30s %s on M_%d; %s\n", res.Name, status, r.smallSize, transfer)
	}
	for _, c := range r.sizes {
		status := "correspond"
		if !c.Corresponds {
			status = "DO NOT correspond"
		}
		fmt.Fprintf(&b, "  M_%d and M_%d %s (%d index pairs, max degree %d, %v)\n",
			r.smallSize, c.Size, status, c.IndexPairs, c.MaxDegree, c.Elapsed.Round(time.Millisecond))
	}
	if sizes := r.VerifiedSizes(); len(sizes) > 0 && r.AllHold() {
		fmt.Fprintf(&b, "  => every transferable spec above holds for sizes %v as well\n", sizes)
	}
	return b.String()
}

// AllHold reports whether every specification holds on the small instance.
func (r *FamilyReport) AllHold() bool {
	for _, res := range r.results {
		if !res.Holds {
			return false
		}
	}
	return len(r.results) > 0
}

// VerifiedSizes returns the sizes for which every transferable
// specification that holds on the small instance is guaranteed by Theorem 5
// to hold as well.
func (r *FamilyReport) VerifiedSizes() []int {
	var out []int
	for _, c := range r.sizes {
		if c.Corresponds {
			out = append(out, c.Size)
		}
	}
	sort.Ints(out)
	return out
}

// SmallSize returns the size of the exhaustively checked instance.
func (r *FamilyReport) SmallSize() int { return r.smallSize }

// Results returns the per-specification verdicts on the small instance.
func (r *FamilyReport) Results() []SpecResult { return slices.Clone(r.results) }

// Correspondences returns the per-size correspondence verdicts.
func (r *FamilyReport) Correspondences() []SizeVerdict { return slices.Clone(r.sizes) }

// TransferCertificate is a portable, serialisable record of why a result
// transfers from a small instance to a large one: the per-index-pair
// correspondence relations with their degrees.  A certificate can be
// stored, shipped and re-validated with Validate — which re-checks the
// relations clause by clause (cheap) rather than re-running the decision
// procedure.
type TransferCertificate struct {
	cert *core.TransferCertificate
}

// BuildTransferCertificate runs the correspondence computation between the
// family's small and large instances and packages the resulting relations.
// It fails when the instances do not correspond (no certificate exists).
func BuildTransferCertificate(ctx context.Context, f Family, smallSize, largeSize int) (*TransferCertificate, error) {
	if f == nil {
		return nil, fmt.Errorf("podc: BuildTransferCertificate: nil family")
	}
	small, err := familyInstance(f, smallSize)
	if err != nil {
		return nil, err
	}
	in, res, err := decideFamily(ctx, f, small, smallSize, largeSize, 0)
	if err != nil {
		return nil, err
	}
	cert, err := core.CertificateFrom(f.Name(), smallSize, largeSize, f.Atoms(), in, res)
	if err != nil {
		return nil, err
	}
	return &TransferCertificate{cert: cert}, nil
}

// TransferCertificateFromJSON decodes a certificate previously produced by
// MarshalJSON.
func TransferCertificateFromJSON(data []byte) (*TransferCertificate, error) {
	var cert core.TransferCertificate
	if err := json.Unmarshal(data, &cert); err != nil {
		return nil, fmt.Errorf("podc: decoding transfer certificate: %w", err)
	}
	return &TransferCertificate{cert: &cert}, nil
}

// FamilyName returns the name of the family the certificate is for.
func (c *TransferCertificate) FamilyName() string { return c.cert.Family }

// SmallSize returns the size of the small instance.
func (c *TransferCertificate) SmallSize() int { return c.cert.SmallSize }

// LargeSize returns the size of the large instance.
func (c *TransferCertificate) LargeSize() int { return c.cert.LargeSize }

// MarshalJSON implements json.Marshaler; the encoding is the library's
// stable certificate format (family, sizes, atoms, per-pair relations).
func (c *TransferCertificate) MarshalJSON() ([]byte, error) { return json.Marshal(c.cert) }

// Validate re-checks the certificate against freshly built instances of the
// family.  It returns nil when the certificate names the family and its
// atoms, lists exactly the family's index relation between the two sizes,
// and every per-index relation is a valid correspondence relation between
// the reductions.
func (c *TransferCertificate) Validate(f Family) error {
	if f == nil {
		return fmt.Errorf("podc: TransferCertificate.Validate: nil family")
	}
	in := indexPairsToRaw(f.IndexRelation(c.cert.SmallSize, c.cert.LargeSize))
	return c.cert.Validate(f.Name(), f.Atoms(), in, func(n int) (*kripke.Structure, error) { return familyInstance(f, n) })
}

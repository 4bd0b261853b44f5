package podc

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/kripke"
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

// coreFamily adapts a public Family to the internal core.Family interface.
type coreFamily struct{ f Family }

func (a coreFamily) Name() string { return a.f.Name() }

func (a coreFamily) Instance(n int) (*kripke.Structure, error) {
	m, err := a.f.Build(n)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("podc: family %s built a nil instance for n=%d", a.f.Name(), n)
	}
	return m.raw(), nil
}

func (a coreFamily) IndexRelation(small, n int) []bisim.IndexPair {
	return indexPairsToRaw(a.f.IndexRelation(small, n))
}

func (a coreFamily) OneProps() []string { return a.f.Atoms() }

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
	rep *core.Report
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
	coreSpecs := make([]core.Spec, len(specs))
	//lint:ctxloop spec validation only, bounded by the caller's spec list
	for i, s := range specs {
		if !s.Formula.IsValid() {
			return nil, fmt.Errorf("podc: VerifyFamily: specification %q has no formula", s.Name)
		}
		coreSpecs[i] = core.Spec{Name: s.Name, Formula: s.Formula.raw()}
	}
	v, err := core.NewVerifier(coreFamily{f: f}, core.Options{
		SmallSize:            cfg.smallSize,
		CorrespondenceSizes:  cfg.correspondenceSizes,
		SkipRestrictionCheck: cfg.skipRestrictionCheck,
	})
	if err != nil {
		return nil, err
	}
	rep, err := v.Run(ctx, coreSpecs)
	if err != nil {
		return nil, err
	}
	return &FamilyReport{rep: rep}, nil
}

// Summary renders the report as human-readable text.
func (r *FamilyReport) Summary() string { return r.rep.Summary() }

// AllHold reports whether every specification holds on the small instance.
func (r *FamilyReport) AllHold() bool { return r.rep.AllHold() }

// VerifiedSizes returns the sizes for which every transferable
// specification that holds on the small instance is guaranteed by Theorem 5
// to hold as well.
func (r *FamilyReport) VerifiedSizes() []int { return r.rep.VerifiedSizes() }

// SmallSize returns the size of the exhaustively checked instance.
func (r *FamilyReport) SmallSize() int { return r.rep.SmallSize }

// Results returns the per-specification verdicts on the small instance.
func (r *FamilyReport) Results() []SpecResult {
	out := make([]SpecResult, len(r.rep.Results))
	for i, res := range r.rep.Results {
		out[i] = SpecResult{
			Name:              res.Spec.Name,
			Holds:             res.HoldsSmall,
			Transferable:      res.Transferable,
			RestrictionIssues: res.RestrictionIssues,
		}
	}
	return out
}

// Correspondences returns the per-size correspondence verdicts.
func (r *FamilyReport) Correspondences() []SizeVerdict {
	out := make([]SizeVerdict, len(r.rep.Correspondence))
	for i, c := range r.rep.Correspondence {
		out[i] = SizeVerdict{
			Size:        c.Size,
			Corresponds: c.Corresponds,
			IndexPairs:  c.IndexPairs,
			MaxDegree:   c.MaxDegree,
			Elapsed:     c.Elapsed,
		}
	}
	return out
}

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
	cert, err := core.BuildCertificate(ctx, coreFamily{f: f}, smallSize, largeSize)
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
	return c.cert.Validate(coreFamily{f: f})
}

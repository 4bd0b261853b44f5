package podc

import (
	"context"
	"fmt"

	"repro/internal/bisim"
	"repro/internal/kripke"
)

// Correspondence is the maximal stuttering correspondence between two
// structures (Section 3): every pair of states that can be part of some
// correspondence relation, together with its minimal degree — the bound on
// the number of stuttering steps either side may take before an exact match
// must be reached.
type Correspondence struct {
	res *bisim.Result
	ev  *Evidence
}

// Correspond computes the maximal correspondence between left and right.
// When it Corresponds(), Theorem 2 guarantees the two structures satisfy
// exactly the same CTL* formulas without the nexttime operator over the
// compared vocabulary (extend it with WithAtoms; restrict totality with
// WithReachableOnly).  Cancelling ctx stops the decision procedure promptly.
func Correspond(ctx context.Context, left, right *Structure, opts ...Option) (*Correspondence, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("podc: Correspond: nil structure")
	}
	cfg := buildConfig(opts)
	res, err := bisim.Compute(ctx, left.raw(), right.raw(), cfg.bisimOptions())
	if err != nil {
		return nil, err
	}
	out := &Correspondence{res: res}
	if cfg.evidence && !res.Corresponds() {
		raw, err := bisim.Explain(ctx, left.raw(), right.raw(), cfg.bisimOptions(), res)
		if err != nil {
			return nil, err
		}
		ev, err := evidenceFromBisim(ctx, raw, bisim.IndexPair{})
		if err != nil {
			return nil, err
		}
		out.ev = ev
	}
	return out, nil
}

// Evidence returns the machine-checked explanation of a failed
// correspondence: the distinguishing formula, the states it separates and
// the game path.  It is non-nil exactly when the correspondence was
// computed with WithEvidence and does not hold.
func (c *Correspondence) Evidence() *Evidence {
	if c == nil {
		return nil
	}
	return c.ev
}

// Corresponds reports whether the structures correspond: initial states
// related and the relation total on both state sets.
func (c *Correspondence) Corresponds() bool { return c != nil && c.res.Corresponds() }

// InitialsRelated reports whether the two initial states are related
// (clause 1 of the definition).
func (c *Correspondence) InitialsRelated() bool { return c != nil && c.res.InitialRelated }

// Total reports whether every state of the left / right structure is
// related to something.
func (c *Correspondence) Total() (left, right bool) {
	if c == nil {
		return false, false
	}
	return c.res.TotalLeft, c.res.TotalRight
}

// Size returns the number of related pairs.
func (c *Correspondence) Size() int { return c.res.Relation.Size() }

// MaxDegree returns the largest minimal degree over all related pairs — how
// much stuttering the relation needs (0 for a lock-step bisimulation).
func (c *Correspondence) MaxDegree() int { return c.res.Relation.MaxDegree() }

// Degree returns the minimal degree of the pair (s, t) and whether the pair
// is related.
func (c *Correspondence) Degree(s, t State) (int, bool) {
	return c.res.Relation.Degree(kripke.State(s), kripke.State(t))
}

// RelatedPair is one element of a correspondence relation.
type RelatedPair struct {
	Left   State `json:"s"`
	Right  State `json:"t"`
	Degree int   `json:"degree"`
}

// Pairs returns every related pair ordered by (left, right).
func (c *Correspondence) Pairs() []RelatedPair {
	raw := c.res.Relation.Pairs()
	out := make([]RelatedPair, len(raw))
	for i, p := range raw {
		out[i] = RelatedPair{Left: State(p.S), Right: State(p.T), Degree: p.Degree}
	}
	return out
}

// MarshalJSON serialises the relation (dimensions plus the pair list), the
// same encoding transfer certificates embed.
func (c *Correspondence) MarshalJSON() ([]byte, error) { return c.res.Relation.MarshalJSON() }

// IndexPair is one element of an index relation IN ⊆ I × I' (Section 4):
// process I of the small structure is observed against process I2 of the
// large one.
type IndexPair struct {
	I  int `json:"i"`
	I2 int `json:"i2"`
}

func indexPairsToRaw(in []IndexPair) []bisim.IndexPair {
	out := make([]bisim.IndexPair, len(in))
	for i, p := range in {
		out[i] = bisim.IndexPair{I: p.I, I2: p.I2}
	}
	return out
}

func indexPairsFromRaw(in []bisim.IndexPair) []IndexPair {
	out := make([]IndexPair, len(in))
	for i, p := range in {
		out[i] = IndexPair{I: p.I, I2: p.I2}
	}
	return out
}

// IndexedCorrespondence is the outcome of IndexedCorrespond: the per-pair
// correspondences of the reductions, plus totality of IN over both index
// sets.
type IndexedCorrespondence struct {
	res *bisim.IndexedResult
	in  []IndexPair
	ev  *Evidence
	// restored marks a result read back from the verdict store rather
	// than decided in this process.
	restored bool
}

// IndexedCorrespond decides the indexed correspondence of Section 4 between
// left and right over the index relation in: for every (i, i') ∈ in the
// reductions left|i and right|i' are compared with the maximal-
// correspondence engine, on a worker pool capped by WithWorkers.  When it
// Corresponds(), Theorem 5 transfers every closed restricted ICTL* formula
// between the structures.  Cancelling ctx stops the pool promptly.
func IndexedCorrespond(ctx context.Context, left, right *Structure, in []IndexPair, opts ...Option) (*IndexedCorrespondence, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("podc: IndexedCorrespond: nil structure")
	}
	cfg := buildConfig(opts)
	res, err := bisim.IndexedCompute(ctx, left.raw(), right.raw(), indexPairsToRaw(in), cfg.bisimOptions())
	if err != nil {
		return nil, err
	}
	out := &IndexedCorrespondence{res: res, in: append([]IndexPair(nil), in...)}
	if cfg.evidence && !res.Corresponds() {
		raw, pair, err := bisim.ExplainIndexed(ctx, left.raw(), right.raw(), res, cfg.bisimOptions())
		if err != nil {
			return nil, err
		}
		ev, err := evidenceFromBisim(ctx, raw, pair)
		if err != nil {
			return nil, err
		}
		out.ev = ev
	}
	return out, nil
}

// Evidence returns the machine-checked explanation of a failed indexed
// correspondence: the offending index pair, the distinguishing formula
// over its reductions and the game path.  It is non-nil exactly when the
// correspondence does not hold and was decided by IndexedCorrespond with
// WithEvidence (a Session answers evidence through
// CorrespondenceEvidence).
func (c *IndexedCorrespondence) Evidence() *Evidence {
	if c == nil {
		return nil
	}
	return c.ev
}

// DefaultIndexRelation builds the index relation the paper uses for the
// token ring: the first index of left is paired with the first index of
// right, and the last index of left with every remaining index of right.
// Appropriate whenever the first process plays a distinguished role and all
// others are interchangeable.
func DefaultIndexRelation(left, right *Structure) []IndexPair {
	return indexPairsFromRaw(bisim.DefaultIndexRelation(left.raw(), right.raw()))
}

// Corresponds reports whether the structures indexed-correspond: IN total
// on both index sets and every pair's reductions correspond.
func (c *IndexedCorrespondence) Corresponds() bool { return c != nil && c.res.Corresponds() }

// IndexRelation returns the IN relation the correspondence was decided
// over, in the order supplied.
func (c *IndexedCorrespondence) IndexRelation() []IndexPair {
	return append([]IndexPair(nil), c.in...)
}

// FailingPairs returns the index pairs whose reductions do not correspond,
// sorted.
func (c *IndexedCorrespondence) FailingPairs() []IndexPair {
	return indexPairsFromRaw(c.res.FailingPairs())
}

// MaxDegree returns the largest minimal degree over all per-pair relations.
func (c *IndexedCorrespondence) MaxDegree() int { return c.res.MaxDegree() }

// PairResult returns the correspondence decided for one index pair of the
// IN relation, and whether that pair was part of it.  A pair decided
// through its orbit class's basis has its relation built on each call.
func (c *IndexedCorrespondence) PairResult(p IndexPair) (*Correspondence, bool) {
	r, ok := c.res.Pair(bisim.IndexPair{I: p.I, I2: p.I2})
	if !ok {
		return nil, false
	}
	return &Correspondence{res: r}, true
}

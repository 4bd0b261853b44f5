package family

import (
	"context"
	"fmt"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/mc"
)

// This file threads the evidence extractor of internal/bisim through the
// topology-generic correspondence deciders: a failed cutoff correspondence
// no longer answers with a bare boolean but names the offending index pair
// and a distinguishing restricted-logic formula over its reductions, and
// the formula is replayed through the model checker before it is handed
// out (mc.ReplayEvidence) — confirmed evidence or an error, never an
// unchecked claim.

// Evidence explains why a family correspondence failed: the offending
// index pair, the distinguishing formula over that pair's normalised
// reductions, and the replay confirmation.
type Evidence struct {
	// Topology names the family the failure occurred in.
	Topology string
	// Small and Large are the instance sizes compared.
	Small, Large int
	// Pair is the index pair whose reductions fail to correspond (zero for
	// an index-relation totality failure).
	Pair bisim.IndexPair
	// Detail is the state-level evidence: the distinguishing formula, the
	// states it separates, and the game path.  Its Left/Right structures
	// are the pair's normalised reductions.  Detail.Formula is nil only
	// when the IN relation itself is not total.
	Detail *bisim.Evidence
	// Confirmed records that the formula was replayed through mc.Checker
	// and evaluated true on the left reduction and false on the right one.
	Confirmed bool
}

// String renders the evidence on one line.
func (e *Evidence) String() string {
	if e == nil {
		return "<no evidence>"
	}
	if e.Detail == nil || e.Detail.Formula == nil {
		return fmt.Sprintf("%s: M_%d vs M_%d: index relation not total", e.Topology, e.Small, e.Large)
	}
	return fmt.Sprintf("%s: M_%d vs M_%d: pair (%d,%d) separated by %s (replay confirmed: %v)",
		e.Topology, e.Small, e.Large, e.Pair.I, e.Pair.I2, e.Detail.Formula, e.Confirmed)
}

// ExplainBuilt extracts confirmed evidence from a failed correspondence
// between two already-built instances (res must be the outcome of
// DecideBuilt for the same arguments).  It returns nil when res
// corresponds.  Evidence whose replay fails is never returned: a replay
// mismatch is reported as an error, since it means the engines disagree.
func ExplainBuilt(ctx context.Context, t Topology, small *kripke.Structure, smallN int, large *kripke.Structure, largeN int, res *bisim.IndexedResult) (*Evidence, error) {
	if res == nil || res.Corresponds() {
		return nil, nil
	}
	detail, pair, err := bisim.ExplainIndexed(ctx, small, large, res, CorrespondOptions(t))
	if err != nil {
		return nil, fmt.Errorf("family: %s: explaining failed correspondence M_%d vs M_%d: %w", t.Name(), smallN, largeN, err)
	}
	ev := &Evidence{Topology: t.Name(), Small: smallN, Large: largeN, Pair: pair, Detail: detail}
	if detail == nil || detail.Formula == nil {
		// IN totality failure: nothing to replay.
		return ev, nil
	}
	if err := mc.ReplayEvidence(ctx, detail); err != nil {
		return nil, fmt.Errorf("family: %s: evidence for M_%d vs M_%d rejected by replay: %w", t.Name(), smallN, largeN, err)
	}
	ev.Confirmed = true
	return ev, nil
}

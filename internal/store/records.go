package store

import (
	"encoding/json"
	"fmt"

	"repro/internal/bisim"
)

// This file defines the payload schemas the rest of the repository stores:
// the semantic content of an indexed correspondence decision (verdicts and
// relations, not work counters, which describe how a decision ran rather
// than what it decided), failure evidence in replayable
// form, and sweep-row metadata.  Kinds:
//
//	"correspondence" — CorrespondenceRecord
//	"certificate"    — the transfer certificate's own JSON (pkg/podc)
//	"evidence"       — EvidenceRecord
//	"sweep"          — SweepRecord
//
// Records only carry data that can be revalidated: relations are re-checked
// against rebuilt structures by certificate validation, and evidence
// formulas are re-parsed and replayed through the model checker before
// anything trusts them.

// PairRecord is one index pair's decision.  Its JSON carries the relation
// as {"n", "n2", "csr"}: the dimensions and the base64 of the relation's
// compressed sparse rows (bisim.Relation.AppendCSR), about two bytes per
// related pair where the relation's own pair-list JSON takes thirty.
type PairRecord struct {
	I              int             `json:"i"`
	I2             int             `json:"i2"`
	InitialRelated bool            `json:"initial_related"`
	TotalLeft      bool            `json:"total_left"`
	TotalRight     bool            `json:"total_right"`
	Relation       *bisim.Relation `json:"relation"`
}

// pairRecordJSON is PairRecord's encoding: the outer Relation field, being
// shallower, replaces the embedded one under the "relation" name.
type pairRecordJSON struct {
	pairRecordFields
	Relation *relationCSR `json:"relation"`
}

// pairRecordFields is PairRecord without its JSON methods.
type pairRecordFields PairRecord

// relationCSR is a relation's stored form.
type relationCSR struct {
	N   int    `json:"n"`
	N2  int    `json:"n2"`
	CSR []byte `json:"csr"`
}

// MarshalJSON implements json.Marshaler.
func (p PairRecord) MarshalJSON() ([]byte, error) {
	js := pairRecordJSON{pairRecordFields: pairRecordFields(p)}
	if p.Relation != nil {
		n, n2 := p.Relation.Dims()
		js.Relation = &relationCSR{N: n, N2: n2, CSR: p.Relation.AppendCSR(nil)}
	}
	return json.Marshal(js)
}

// UnmarshalJSON implements json.Unmarshaler; the relation's rows are
// checked by bisim.DecodeCSR.
func (p *PairRecord) UnmarshalJSON(data []byte) error {
	var js pairRecordJSON
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	*p = PairRecord(js.pairRecordFields)
	if js.Relation != nil {
		rel, err := bisim.DecodeCSR(js.Relation.N, js.Relation.N2, js.Relation.CSR)
		if err != nil {
			return fmt.Errorf("store: pair (%d,%d): %w", p.I, p.I2, err)
		}
		p.Relation = rel
	}
	return nil
}

// CorrespondenceRecord is the persistent form of a bisim.IndexedResult:
// the verdicts and the full state-pair relations, which Restore rebuilds
// into a result callers can interrogate pair by pair.
type CorrespondenceRecord struct {
	Corresponds  bool         `json:"corresponds"`
	INTotalLeft  bool         `json:"in_total_left"`
	INTotalRight bool         `json:"in_total_right"`
	Pairs        []PairRecord `json:"pairs"`
	// States / Transitions describe the large instance the decision was
	// made against; MaxDegree is the relations' maximum degree.
	States      int `json:"states,omitempty"`
	Transitions int `json:"transitions,omitempty"`
	MaxDegree   int `json:"max_degree"`
}

// RecordIndexed captures an indexed decision for storage, materialising
// every pair's relation.  The pairs are recorded in (I, I2) order, so one
// key's decision always writes the same bytes.
func RecordIndexed(res *bisim.IndexedResult) *CorrespondenceRecord {
	if res == nil {
		return nil
	}
	rec := &CorrespondenceRecord{
		Corresponds:  res.Corresponds(),
		INTotalLeft:  res.INTotalLeft,
		INTotalRight: res.INTotalRight,
		MaxDegree:    res.MaxDegree(),
	}
	for p, r := range res.Pairs {
		rec.Pairs = append(rec.Pairs, PairRecord{
			I:              p.I,
			I2:             p.I2,
			InitialRelated: r.InitialRelated,
			TotalLeft:      r.TotalLeft,
			TotalRight:     r.TotalRight,
			Relation:       r.Relation,
		})
	}
	return rec
}

// Restore rebuilds the bisim.IndexedResult a record was made from.  Work
// counters and recorded partitions are not part of the record: replayed
// results carry zero counters and nil partitions, which is also how the
// engines report "no work done".
func (rec *CorrespondenceRecord) Restore() (*bisim.IndexedResult, error) {
	if rec == nil {
		return nil, fmt.Errorf("store: nil correspondence record")
	}
	pairs := make(map[bisim.IndexPair]*bisim.Result, len(rec.Pairs))
	for _, p := range rec.Pairs {
		if p.Relation == nil {
			return nil, fmt.Errorf("store: pair (%d,%d) misses its relation", p.I, p.I2)
		}
		key := bisim.IndexPair{I: p.I, I2: p.I2}
		if _, dup := pairs[key]; dup {
			return nil, fmt.Errorf("store: duplicate pair (%d,%d)", p.I, p.I2)
		}
		pairs[key] = &bisim.Result{
			Relation:       p.Relation,
			InitialRelated: p.InitialRelated,
			TotalLeft:      p.TotalLeft,
			TotalRight:     p.TotalRight,
		}
	}
	out := bisim.NewIndexedResult(pairs, rec.INTotalLeft, rec.INTotalRight)
	if out.Corresponds() != rec.Corresponds {
		return nil, fmt.Errorf("store: record verdict %v disagrees with its own pairs", rec.Corresponds)
	}
	return out, nil
}

// SweepRecord is one sweep cell's verdict plus the row metadata a cache
// hit reports.  Unlike CorrespondenceRecord it deliberately omits the
// state-pair relations: at sweep sizes those dominate the payload (tens of
// megabytes per cell near the top of the default battery), and reading
// them back costs more than the replay saves.  A sweep cell only ever
// reports the scalars below, so that is all its record carries.
type SweepRecord struct {
	Corresponds bool `json:"corresponds"`
	States      int  `json:"states"`
	Transitions int  `json:"transitions"`
	MaxDegree   int  `json:"max_degree"`
}

// Check audits a sweep record's internal consistency; a record that fails
// is treated as a miss and recomputed.  Sweep cells are only recorded for
// decided (total, non-empty) instances, so the scalars obey: at least one
// state, totality's one-successor-per-state floor on transitions, and —
// when the verdict is positive — a left-total relation, hence degree ≥ 1.
func (rec *SweepRecord) Check() error {
	if rec == nil {
		return fmt.Errorf("store: nil sweep record")
	}
	if rec.States < 1 {
		return fmt.Errorf("store: sweep record has %d states", rec.States)
	}
	if rec.Transitions < rec.States {
		return fmt.Errorf("store: sweep record has %d transitions for %d states (total structures need one per state)",
			rec.Transitions, rec.States)
	}
	if rec.MaxDegree < 0 || (rec.Corresponds && rec.MaxDegree < 1) {
		return fmt.Errorf("store: sweep record verdict %v with max degree %d", rec.Corresponds, rec.MaxDegree)
	}
	return nil
}

// EvidenceRecord is failure evidence in replayable form: everything needed
// to reconstruct bisim.Evidence against freshly built structures and
// re-confirm the distinguishing formula through the model checker.  The
// formula is stored as text and re-parsed on load, so a stored record can
// never smuggle an unchecked formula past the replay gate.
type EvidenceRecord struct {
	Reason string `json:"reason"`
	// I / I2 name the failing index pair (zero for plain correspondences).
	I  int `json:"i"`
	I2 int `json:"i2"`
	// Formula is the printed distinguishing formula ("" when the failure
	// has no formula, e.g. an index relation that is not total).
	Formula    string `json:"formula,omitempty"`
	LeftState  int    `json:"left_state"`
	RightState int    `json:"right_state"`
	GamePath   []int  `json:"game_path,omitempty"`
	GameSide   string `json:"game_side,omitempty"`
	GameLoop   int    `json:"game_loop"`
}

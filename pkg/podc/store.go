package podc

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
	"repro/internal/store"
)

// This file connects a Session to the persistent verdict store of
// internal/store (WithStore).  The store is a second cache tier below the
// in-memory flight maps: correspondences, transfer certificates and failure
// evidence survive the process, so a restarted service answers its standing
// battery from disk.  The session trusts nothing it reads back —
// correspondences are structurally audited (CorrespondenceRecord.Restore),
// certificates re-validated clause by clause against freshly built
// instances, and evidence formulas re-parsed and replayed through the model
// checker — so a stale or tampered entry costs a recompute, never a wrong
// answer.

// StoreStats reports the counters of the session's persistent verdict
// store.  ok is false when the session has no working store (WithStore not
// given, or the directory could not be opened).
func (s *Session) StoreStats() (store.Stats, bool) {
	st := s.verdictStore()
	if st == nil {
		return store.Stats{}, false
	}
	return st.Stats(), true
}

// verdictStore lazily opens the configured verdict store.  A store that
// fails to open is logged once and disabled for the session's lifetime: a
// broken cache degrades to cold computation, it never fails a request.
// The returned nil *store.Store is itself a valid no-op store.
func (s *Session) verdictStore() *store.Store {
	if s.cfg.storeDir == "" {
		return nil
	}
	s.storeOnce.Do(func() {
		st, err := store.Open(s.cfg.storeDir)
		if err != nil {
			log.Printf("podc: disabling verdict store: %v", err)
			return
		}
		s.store = st
	})
	return s.store
}

// storeKey addresses one of the session's artefacts in the verdict store.
// The key pins the topology, both sizes, the compared vocabulary and the
// reachability restriction of the canonical decision
// (family.CorrespondOptions).
func (s *Session) storeKey(kind string, t family.Topology, small, large int) store.Key {
	return store.Key{
		Kind:          kind,
		Topology:      t.Name(),
		Small:         small,
		Large:         large,
		Atoms:         t.Atoms(),
		ReachableOnly: true,
	}
}

// storePut writes an artefact back to the store.  Failures are logged, not
// returned: the verdict the caller is about to hand out stands either way.
func storePut(st *store.Store, key store.Key, payload any) {
	if st == nil {
		return
	}
	if err := st.Put(key, payload); err != nil && st.Logf != nil {
		st.Logf("podc: caching %s %s %d~%d: %v", key.Kind, key.Topology, key.Small, key.Large, err)
	}
}

// evidenceRecordFromFamily flattens replay-confirmed family evidence into
// its storable form.  The formula is kept as text; loading re-parses and
// re-replays it, so the stored record can never bypass the replay gate.
func evidenceRecordFromFamily(fev *family.Evidence) *store.EvidenceRecord {
	rec := &store.EvidenceRecord{
		Reason:   string(bisim.ReasonIndexRelation),
		I:        fev.Pair.I,
		I2:       fev.Pair.I2,
		GameLoop: -1,
	}
	if d := fev.Detail; d != nil {
		rec.Reason = string(d.Reason)
		rec.LeftState = int(d.LeftState)
		rec.RightState = int(d.RightState)
		rec.GameSide = d.GameSide
		rec.GameLoop = d.GameLoop
		for _, q := range d.GamePath {
			rec.GamePath = append(rec.GamePath, int(q))
		}
		if d.Formula != nil {
			rec.Formula = d.Formula.String()
		}
	}
	return rec
}

// replayEvidenceRecord turns a stored evidence record back into confirmed
// Evidence: parse the stored formula, rebuild the failing pair's normalised
// reductions from session-cached instances, and replay the formula through
// the model checker — true on the left reduction, false on the right.  Any
// failure rejects the record (the caller recomputes from scratch).
func (s *Session) replayEvidenceRecord(ctx context.Context, t family.Topology, small, large int, rec *store.EvidenceRecord) (*Evidence, error) {
	pair := bisim.IndexPair{I: rec.I, I2: rec.I2}
	ev := &bisim.Evidence{
		Reason:     bisim.EvidenceReason(rec.Reason),
		LeftState:  kripke.State(rec.LeftState),
		RightState: kripke.State(rec.RightState),
		GameSide:   rec.GameSide,
		GameLoop:   rec.GameLoop,
	}
	for _, q := range rec.GamePath {
		ev.GamePath = append(ev.GamePath, kripke.State(q))
	}
	if rec.Formula == "" {
		// Only an IN-totality failure carries no formula; anything else
		// without one is a malformed record.
		if ev.Reason != bisim.ReasonIndexRelation {
			return nil, fmt.Errorf("podc: stored evidence has reason %q but no formula", rec.Reason)
		}
		return wrapRawEvidence(ev, pair, false), nil
	}
	f, err := logic.Parse(rec.Formula)
	if err != nil {
		return nil, fmt.Errorf("podc: re-parsing stored evidence formula: %w", err)
	}
	ev.Formula = f
	sm, err := s.topologyInstance(ctx, t, small)
	if err != nil {
		return nil, err
	}
	lg, err := s.topologyInstance(ctx, t, large)
	if err != nil {
		return nil, err
	}
	ev.Left = sm.m.raw().ReduceNormalized(rec.I)
	ev.Right = lg.m.raw().ReduceNormalized(rec.I2)
	if err := mc.ReplayEvidence(ctx, ev); err != nil {
		return nil, fmt.Errorf("podc: stored evidence rejected by replay: %w", err)
	}
	return wrapRawEvidence(ev, pair, true), nil
}

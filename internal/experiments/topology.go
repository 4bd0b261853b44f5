package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/explore"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/store"
	"repro/internal/symmetry"
)

// This file generalises the ring-size sweep to arbitrary topologies and
// adds the cross-topology correspondence experiment (E10): the machinery
// that turns "the paper's method works for the ring" into "the method
// works for every family the Topology interface can describe".

// TopologySweep builds the topology's cutoff instance once and decides the
// cutoff correspondence M_cutoff ~ M_n for every requested size, one job
// per size on the worker pool, streaming each verdict as soon as it is
// decided (the channel closes after the last).  The cutoff instance is
// built through the packed explorer, byte-identical to topo.Build, so its
// space yields the index action each decision uses to decide one index
// pair per orbit class.  Sizes the topology cannot instantiate (for
// example odd sizes of the 2-row torus) come back as rows with Err set,
// so a sweep over a mixed size list keeps going.
func (r Runner) TopologySweep(ctx context.Context, topo family.Topology, sizes []int) <-chan SweepRow {
	out := make(chan SweepRow)
	go func() {
		defer close(out)
		fail := func(size int, err error) bool {
			select {
			case out <- SweepRow{Topology: topo.Name(), R: size, Err: err}:
				return true
			case <-ctx.Done():
				return false
			}
		}
		small, smallAction, err := instanceWithAction(ctx, topo, topo.CutoffSize())
		if err != nil {
			for _, size := range sizes {
				if !fail(size, err) {
					return
				}
			}
			return
		}
		jobs := make([]Job, len(sizes))
		rows := make([]SweepRow, len(sizes))
		for k, size := range sizes {
			k, size := k, size
			jobs[k] = Job{ID: fmt.Sprintf("%s n=%d", topo.Name(), size), Run: func(ctx context.Context) (*Table, error) {
				rows[k] = r.decideRow(ctx, topo, small, smallAction, size)
				return nil, nil
			}}
		}
		for o := range r.Stream(ctx, jobs) {
			select {
			case out <- rows[o.Index]:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// instanceWithAction builds the topology's size-n instance with one
// explorer worker and returns it with its index action, nil when the
// instance has none.
func instanceWithAction(ctx context.Context, topo family.Topology, n int) (*kripke.Structure, *kripke.IndexAction, error) {
	pi, err := topo.Packed(n)
	if err != nil {
		return nil, nil, err
	}
	m, sp, err := pi.Build(ctx, 1)
	if err != nil {
		return nil, nil, err
	}
	a, err := pi.OptionalIndexAction(ctx, sp, m)
	return m, a, err
}

// sweepKey addresses one sweep cell's verdict in the persistent store.  The
// key pins everything the verdict depends on: the topology, both sizes, the
// compared vocabulary and the reachability restriction (always on for
// sweeps, see family.CorrespondOptions).  Sweep cells store the light
// store.SweepRecord, not the relation-carrying correspondence record: near
// the top of the default battery the relations outweigh the decision they
// replay (see BenchmarkSweepFullRangeReplay), and a sweep row never reads
// them.
func sweepKey(topo family.Topology, size int) store.Key {
	return store.Key{
		Kind:          "sweep",
		Topology:      topo.Name(),
		Small:         topo.CutoffSize(),
		Large:         size,
		Atoms:         topo.Atoms(),
		ReachableOnly: true,
	}
}

// decideRow measures one (topology, size) cell of a sweep.  The instance
// is explored from the topology's definition by the runner's build pool
// (byte-identical to Topology.Build); sizes whose spaces exceed the
// decide budget come back as build-only rows carrying the raw-space counts,
// the construction throughput and the symmetry-quotient orbit count, with
// the reachable set checked for orbit closure instead of being decided.
// When the runner has a store, the cell
// is first looked up there — a valid entry replays the verdict without
// building anything — and fresh decisions are written back.  An explored
// instance's index action, with smallAction on the cutoff side, lets the
// decision compute one index pair per orbit class.
func (r Runner) decideRow(ctx context.Context, topo family.Topology, small *kripke.Structure, smallAction *kripke.IndexAction, size int) SweepRow {
	row := SweepRow{Topology: topo.Name(), R: size}
	if err := topo.ValidSize(size); err != nil {
		row.Err = err
		return row
	}
	key := sweepKey(topo, size)
	if r.Store != nil {
		var rec store.SweepRecord
		if ok, err := r.Store.Get(key, &rec); err == nil && ok {
			// Check audits the record's internal consistency; a record
			// that fails it is recomputed like any other miss.
			if err := rec.Check(); err == nil {
				row.CacheHit = true
				row.States = rec.States
				row.Transitions = rec.Transitions
				row.MaxDegree = rec.MaxDegree
				row.Corresponds = rec.Corresponds
				return row
			}
		}
	}
	var large *kripke.Structure
	var largeAction *kripke.IndexAction
	buildStart := time.Now()
	pi, err := topo.Packed(size)
	if err != nil {
		row.Err = err
		return row
	}
	sp, err := explore.Explore(ctx, pi.Def, explore.Options{Workers: r.BuildWorkers})
	if err != nil {
		row.Err = err
		return row
	}
	exploreElapsed := time.Since(buildStart)
	row.States = sp.NumStates()
	row.Transitions = sp.NumTransitions()
	if secs := exploreElapsed.Seconds(); secs > 0 {
		row.StatesPerSec = float64(sp.NumStates()) / secs
	}
	if sp.NumStates() > r.decideStateBudget() || (pi.MaxStates > 0 && sp.NumStates() > pi.MaxStates) {
		row.BuildOnly = true
		row.BuildElapsed = exploreElapsed
		row.Err = r.quotientStats(ctx, pi, sp, &row)
		return row
	}
	m, err := explore.BuildFromSpace(ctx, pi.Def, sp)
	if err != nil {
		row.Err = err
		return row
	}
	if large, err = pi.FinishBuilt(m); err != nil {
		row.Err = err
		return row
	}
	// MakeTotal variants may add self loops the raw space lacks.
	row.States = large.NumStates()
	row.Transitions = large.NumTransitions()
	if largeAction, err = pi.OptionalIndexAction(ctx, sp, large); err != nil {
		row.Err = err
		return row
	}
	row.BuildElapsed = time.Since(buildStart)
	// The inner index-pair pool inherits the runner's cap, so
	// -workers bounds the total concurrency of a sweep.
	decideStart := time.Now()
	res, err := family.DecideBuilt(ctx, topo, small, topo.CutoffSize(), large, size, smallAction, largeAction, r.Workers)
	row.DecideElapsed = time.Since(decideStart)
	if err != nil {
		row.Err = err
		return row
	}
	row.Corresponds = res.Corresponds()
	row.MaxDegree = res.MaxDegree()
	if r.Store != nil {
		rec := &store.SweepRecord{
			Corresponds: row.Corresponds,
			States:      row.States,
			Transitions: row.Transitions,
			MaxDegree:   row.MaxDegree,
		}
		// The verdict itself stands either way, but a failing store (disk
		// full, permissions) should be visible, not silent.
		if err := r.Store.Put(key, rec); err != nil {
			row.Err = fmt.Errorf("experiments: caching %s n=%d: %w", topo.Name(), size, err)
		}
	}
	return row
}

// quotientStats fills the symmetry statistics of a build-only row: the
// orbit count of the instance's automorphism group, explored by the
// runner's build pool over the group's QuotientDef, with the orbit-closure
// invariant Σ |orbit(rep)| = |space| checked so a build-only row still
// certifies something about the space it refused to decide on.
func (r Runner) quotientStats(ctx context.Context, pi family.PackedInstance, sp *explore.Space, row *SweepRow) error {
	if pi.Group == nil {
		return nil
	}
	q, err := explore.Explore(ctx, symmetry.QuotientDef(pi.Def, pi.Group), explore.Options{Workers: r.BuildWorkers})
	if err != nil {
		return err
	}
	row.QuotientStates = q.NumStates()
	total := 0
	for _, rep := range q.Codes() {
		total += pi.Group.OrbitSize(rep)
	}
	if total != sp.NumStates() {
		return fmt.Errorf("experiments: %s n=%d: orbit closure violated: orbits of the %d representatives cover %d states, space has %d",
			row.Topology, row.R, q.NumStates(), total, sp.NumStates())
	}
	return nil
}

// crossTopologyReach is how far past each topology's cutoff the E10
// experiment decides correspondences by default.
const crossTopologyReach = 5

// CrossTopology is experiment E10: for every built-in topology, decide the
// cutoff correspondence M_cutoff ~ M_n for each buildable size up to
// cutoff + reach, and tabulate the verdicts side by side.  Every "yes" row
// extends — by Theorem 5 — the range of sizes over which the topology's
// restricted ICTL* specifications transfer from its cutoff instance.
func CrossTopology(ctx context.Context, reach int) (*Table, error) {
	if reach < 1 {
		reach = crossTopologyReach
	}
	t := &Table{
		ID:    "E10",
		Title: "Cross-topology cutoff correspondences (the generalised family engine)",
		Columns: []string{"topology", "small", "n", "states", "indexed correspondence",
			"max degree", "decide"},
	}
	for _, topo := range family.Topologies() {
		small := topo.CutoffSize()
		smallM, _, err := family.BuildParallel(ctx, topo, small, 1)
		if err != nil {
			return nil, fmt.Errorf("experiments: E10: %s cutoff: %w", topo.Name(), err)
		}
		for _, n := range family.ValidSizesIn(topo, small+1, small+reach) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			largeM, _, err := family.BuildParallel(ctx, topo, n, 1)
			if err != nil {
				return nil, fmt.Errorf("experiments: E10: %s n=%d: %w", topo.Name(), n, err)
			}
			start := time.Now()
			res, err := family.DecideBuilt(ctx, topo, smallM, small, largeM, n, nil, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("experiments: E10: %s %d~%d: %w", topo.Name(), small, n, err)
			}
			t.AddRow(topo.Name(), small, n, largeM.NumStates(), res.Corresponds(), res.MaxDegree(), time.Since(start))
		}
	}
	t.Notes = append(t.Notes,
		"each topology's specifications are model checked once on its cutoff instance; every 'yes' row transfers them to that size by Theorem 5",
		"the ring rows use the Section 5 request/grant protocol (r·2^r states); the star/line/tree/torus rows use the requestless token-circulation protocol of internal/family (2n states)")
	return t, nil
}

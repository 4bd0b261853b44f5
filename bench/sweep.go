package bench

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bisim"
	"repro/internal/explore"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/store"
	"repro/pkg/podc"
)

// The sweep workload is the paper's method at the sizes the system runs:
// every topology's cutoff correspondence M_cutoff ~ M_n for every valid n
// in 4..SweepMax, decided cold into a fresh verdict store.  Construction
// and refinement do almost all the work; the store only takes small
// sweep-record writes.

// sweepMin is the smallest size swept; the warm-up sweep of the set-up
// stops at warmupMax.
const (
	sweepMin  = 4
	warmupMax = 9
)

// goldenCell is one sweep cell's expected verdict.
type goldenCell struct {
	Topology    string `json:"topology"`
	N           int    `json:"n"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Corresponds bool   `json:"corresponds"`
	MaxDegree   int    `json:"max_degree"`
}

//go:embed testdata/sweep_golden.json
var goldenJSON []byte

// loadGolden returns the committed sweep verdicts keyed by "topology/n".
func loadGolden() (map[string]goldenCell, error) {
	var cells []goldenCell
	if err := json.Unmarshal(goldenJSON, &cells); err != nil {
		return nil, fmt.Errorf("bench: golden sweep file: %w", err)
	}
	out := make(map[string]goldenCell, len(cells))
	for _, c := range cells {
		out[cellKey(c.Topology, c.N)] = c
	}
	return out, nil
}

func cellKey(topology string, n int) string { return fmt.Sprintf("%s/%d", topology, n) }

// sweepPlan is one sweep's visiting order: the topologies in seeded
// order, each with its sizes ascending, as a user sweeps them.  (Shuffling
// the sizes would change how the two runner workers pair the big ring
// cells, and with it the sweep's wall time, from seed to seed.)
type sweepPlan []struct {
	topo  podc.Topology
	sizes []int
}

func newSweepPlan(rng *rand.Rand, maxN int) sweepPlan {
	topos := podc.Topologies()
	rng.Shuffle(len(topos), func(a, b int) { topos[a], topos[b] = topos[b], topos[a] })
	plan := make(sweepPlan, len(topos))
	for k, t := range topos {
		var sizes []int
		for n := sweepMin; n <= maxN; n++ {
			if t.ValidSize(n) == nil && n >= t.CutoffSize() {
				sizes = append(sizes, n)
			}
		}
		plan[k].topo, plan[k].sizes = t, sizes
	}
	return plan
}

func (p sweepPlan) cells() int {
	n := 0
	for _, t := range p {
		n += len(t.sizes)
	}
	return n
}

// cellResult is what the golden check compares.
type cellResult struct {
	topology               string
	n, states, transitions int
	corresponds            bool
	maxDegree              int
	elapsed                time.Duration
	cacheHit, buildOnly    bool
	err                    error
}

func checkCell(o *outcome, golden map[string]goldenCell, c cellResult) {
	o.attempted++
	want, ok := golden[cellKey(c.topology, c.n)]
	switch {
	case c.err != nil:
		o.fail("sweep %s n=%d: %v", c.topology, c.n, c.err)
	case !ok:
		o.fail("sweep %s n=%d: no golden cell", c.topology, c.n)
	case c.cacheHit || c.buildOnly:
		o.fail("sweep %s n=%d: expected a cold decision (cache hit %v, build-only %v)", c.topology, c.n, c.cacheHit, c.buildOnly)
	case c.states != want.States || c.transitions != want.Transitions ||
		c.corresponds != want.Corresponds || c.maxDegree != want.MaxDegree:
		o.fail("sweep %s n=%d: got states=%d transitions=%d corresponds=%v max_degree=%d, golden %+v",
			c.topology, c.n, c.states, c.transitions, c.corresponds, c.maxDegree, want)
	}
}

// sweepOnce runs one sweep the way a user does: a fresh session on a fresh
// store, SweepTopology over each topology in the plan.
func sweepOnce(ctx context.Context, dir string, plan sweepPlan) ([]cellResult, store.Stats, error) {
	s := podc.NewSession(podc.WithStore(dir))
	var out []cellResult
	for _, t := range plan {
		for row := range s.SweepTopology(ctx, t.topo, t.sizes) {
			out = append(out, cellResult{
				topology: row.Topology, n: row.R, states: row.States, transitions: row.Transitions,
				corresponds: row.Corresponds, maxDegree: row.MaxDegree, elapsed: row.Build + row.Decide,
				cacheHit: row.CacheHit, buildOnly: row.BuildOnly, err: row.Err,
			})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, store.Stats{}, err
	}
	st, _ := s.StoreStats()
	return out, st, nil
}

func runSweep(ctx context.Context, cfg Config, work string, tr *tracer) (*outcome, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 1))
	o := &outcome{tailPct: 90}
	dirs := 0
	freshDir := func() (string, error) {
		dirs++
		dir := filepath.Join(work, fmt.Sprintf("store-%d", dirs))
		return dir, os.MkdirAll(dir, 0o755)
	}

	// Set-up: a warm-up sweep over the small sizes (runtime, heap and page
	// cache warm-up), into its own fresh store.
	for range cfg.SetupReps {
		dir, err := freshDir()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		cells, _, err := sweepOnce(ctx, dir, newSweepPlan(rng, min(warmupMax, cfg.SweepMax)))
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		for _, c := range cells {
			checkCell(o, golden, c)
		}
	}

	var stores storeCounts
	var meter opMeter
	callsBefore, batchesBefore := bisim.ComputeCalls(), bisim.RefineBatches()
	tracedStates := 0
	start := time.Now()
	for k := 0; cfg.more(start, k); k++ {
		dir, err := freshDir()
		if err != nil {
			return nil, err
		}
		plan := newSweepPlan(rng, cfg.SweepMax)
		if err := meter.begin(); err != nil {
			return nil, err
		}
		var cells []cellResult
		var st store.Stats
		if cfg.traced(k) {
			cells, st, err = tracedSweep(ctx, tr, dir, plan, int64(k))
		} else {
			cells, st, err = sweepOnce(ctx, dir, plan)
		}
		if err != nil {
			return nil, err
		}
		d, err := meter.end()
		if err != nil {
			return nil, err
		}
		if cfg.traced(k) {
			o.tracedOps = append(o.tracedOps, ms(d))
			for _, c := range cells {
				tracedStates += c.states
			}
		} else {
			o.ops = append(o.ops, ms(d))
			for _, c := range cells {
				o.sub = append(o.sub, ms(c.elapsed))
			}
		}
		o.units += len(cells)
		stores.add(st)
		for _, c := range cells {
			checkCell(o, golden, c)
		}
		if len(cells) != plan.cells() {
			o.fail("sweep %d: %d of %d cells answered", k, len(cells), plan.cells())
		}
		// Each sweep writes into its own store; drop it once checked.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	meter.fill(o)

	if cfg.Trace {
		nops := float64(len(o.ops) + len(o.tracedOps))
		o.spans = tr.snapshot()
		o.layer = spanLayerMetrics(o.spans, float64(len(o.tracedOps)))
		exploreNS := selfNS(o.spans, byName("explore.Explore"))
		o.layer["explore.states_per_s"] = float64(tracedStates) / (float64(exploreNS) / 1e9)
		o.layer["bisim.refinements"] = float64(bisim.ComputeCalls()-callsBefore) / nops
		o.layer["bisim.refine_batches"] = float64(bisim.RefineBatches()-batchesBefore) / nops
		stores.perOp(o.layer, nops)
	}
	return o, nil
}

// tracedSweep re-drives one sweep through the public calls the sweep
// runner makes for each cell (experiments.Runner.decideRow), with a span
// around each: store.Get, explore.Explore, explore.BuildFromSpace,
// FinishBuilt, bisim.IndexedCompute and store.Put.  Cells run on a pool of
// GOMAXPROCS workers, as in the runner.
func tracedSweep(ctx context.Context, tr *tracer, dir string, plan sweepPlan, req int64) ([]cellResult, store.Stats, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, store.Stats{}, err
	}
	root := tr.start(layerBench, "sweep", 0, req)
	defer root.end()
	var out []cellResult
	for _, pt := range plan {
		t, ok := family.ByName(pt.topo.Name())
		if !ok {
			return nil, store.Stats{}, fmt.Errorf("unknown topology %q", pt.topo.Name())
		}
		sp := tr.start("explore", "Topology.Build(cutoff)", root.id(), req)
		small, err := t.Build(t.CutoffSize())
		sp.end()
		if err != nil {
			return nil, store.Stats{}, err
		}
		cells := make([]cellResult, len(pt.sizes))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range min(len(pt.sizes), runtime.GOMAXPROCS(0)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(pt.sizes) || ctx.Err() != nil {
						return
					}
					cells[k] = tracedCell(ctx, tr, st, t, small, pt.sizes[k], root.id(), req)
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, store.Stats{}, err
		}
		out = append(out, cells...)
	}
	return out, st.Stats(), nil
}

func tracedCell(ctx context.Context, tr *tracer, st *store.Store, t family.Topology, small *kripke.Structure, n int, parent, req int64) cellResult {
	c := tr.start(layerBench, fmt.Sprintf("cell %s n=%d", t.Name(), n), parent, req)
	defer c.end()
	res := cellResult{topology: t.Name(), n: n}
	fail := func(err error) cellResult {
		res.err = err
		return res
	}

	key := store.Key{Kind: "sweep", Topology: t.Name(), Small: t.CutoffSize(), Large: n, Atoms: t.Atoms(), ReachableOnly: true}
	sp := tr.start("store", "store.Get", c.id(), req)
	var rec store.SweepRecord
	hit, err := st.Get(key, &rec)
	sp.end()
	if err != nil {
		return fail(err)
	}
	res.cacheHit = hit

	pi, ok := family.Packed(t, n)
	if !ok {
		return fail(fmt.Errorf("%s has no packed definition for n=%d", t.Name(), n))
	}
	sp = tr.start("explore", "explore.Explore", c.id(), req)
	space, err := explore.Explore(ctx, pi.Def, explore.Options{})
	sp.end()
	if err != nil {
		return fail(err)
	}
	sp = tr.start("explore", "explore.BuildFromSpace", c.id(), req)
	m, err := explore.BuildFromSpace(ctx, pi.Def, space)
	sp.end()
	if err != nil {
		return fail(err)
	}
	sp = tr.start("explore", "PackedInstance.FinishBuilt", c.id(), req)
	large, err := pi.FinishBuilt(m)
	sp.end()
	if err != nil {
		return fail(err)
	}
	res.states, res.transitions = large.NumStates(), large.NumTransitions()

	in := t.IndexRelation(t.CutoffSize(), n)
	// IndexedCompute reduces each distinct index once before refining; the
	// same reductions are timed here by duplicate calls so the trace can
	// show the reduction share of bisim.IndexedCompute.
	seenL, seenR := map[int]bool{}, map[int]bool{}
	for _, p := range in {
		if !seenL[p.I] {
			seenL[p.I] = true
			sp = tr.start("kripke", "Structure.ReduceNormalized", c.id(), req)
			small.ReduceNormalized(p.I)
			sp.endContained("bisim.IndexedCompute")
		}
		if !seenR[p.I2] {
			seenR[p.I2] = true
			sp = tr.start("kripke", "Structure.ReduceNormalized", c.id(), req)
			large.ReduceNormalized(p.I2)
			sp.endContained("bisim.IndexedCompute")
		}
	}
	sp = tr.start("bisim", "bisim.IndexedCompute", c.id(), req)
	decided, err := bisim.IndexedCompute(ctx, small, large, in, family.CorrespondOptions(t))
	sp.end()
	if err != nil {
		return fail(err)
	}
	res.corresponds = decided.Corresponds()
	for _, pr := range decided.Pairs {
		res.maxDegree = max(res.maxDegree, pr.Relation.MaxDegree())
	}

	sp = tr.start("store", "store.Put", c.id(), req)
	err = st.Put(key, &store.SweepRecord{
		Corresponds: res.corresponds, States: res.states, Transitions: res.transitions, MaxDegree: res.maxDegree,
	})
	sp.end()
	if err != nil {
		return fail(err)
	}
	return res
}

package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// This file is the parallel experiment runner: a worker pool that executes
// experiment jobs concurrently and streams each result the moment it is
// ready.  Two kinds of workloads run on it:
//
//   - the standard experiment battery E1..E10 (StandardJobs), where the
//     jobs are heterogeneous tables, and
//   - parameter sweeps (TopologySweep), where one job per size decides a
//     topology's cutoff correspondence M_cutoff ~ M_n and the interesting
//     output is how cost grows with n.
//
// Jobs are independent, so the pool preserves nothing but the job order of
// collected results; streamed results arrive in completion order, which is
// what a terminal user watching a sweep wants to see.

// Job is one experiment to run: an identifier and a function producing its
// table.  Run receives the context of the Stream/Collect call that executes
// it; well-behaved jobs return promptly with ctx.Err() once it is cancelled.
type Job struct {
	ID  string
	Run func(ctx context.Context) (*Table, error)
}

// Outcome is the result of one Job, delivered by Runner.Stream as soon as
// the job finishes.
type Outcome struct {
	// Index is the job's position in the slice given to Stream/Collect.
	Index int
	// ID echoes the job's identifier.
	ID string
	// Table is the job's result (nil on error).
	Table *Table
	// Err is the job's error (nil on success).
	Err error
	// Elapsed is the job's wall-clock running time.
	Elapsed time.Duration
}

// Runner executes experiment jobs on a worker pool.
type Runner struct {
	// Workers is the pool size; zero or negative means one worker per
	// available CPU.
	Workers int
	// BuildWorkers caps the parallel packed-BFS construction pool the
	// sweeps use for topologies with a packed definition (zero or
	// negative: one construction worker per available CPU).  The built
	// instances are identical for every worker count.
	BuildWorkers int
	// DecideStateBudget bounds the instance size (in states) for which a
	// sweep decides the cutoff correspondence.  Instances beyond the
	// budget come back as build-only rows: the raw space is still
	// explored and its symmetry quotient counted, but the labelled build
	// and the refinement decision are skipped.  Zero or negative means
	// the default budget.
	DecideStateBudget int
	// Store, when non-nil, replays previously decided sweep rows from the
	// persistent verdict store (skipping both the build and the decision)
	// and records fresh decisions into it.  Build-only and failed rows are
	// never stored.
	Store *store.Store
}

// defaultDecideStateBudget keeps the decided portion of a default sweep
// within a CI-friendly wall clock: the r = 14 ring (229 376 states) still
// decides, the 1M-state r = 16 ring and beyond switch to build-only rows.
const defaultDecideStateBudget = 300_000

func (r Runner) decideStateBudget() int {
	if r.DecideStateBudget <= 0 {
		return defaultDecideStateBudget
	}
	return r.DecideStateBudget
}

func (r Runner) poolSize(jobs int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Stream runs the jobs on the pool and delivers every outcome as soon as
// its job completes, in completion order.  The channel is closed after the
// last outcome.  When ctx is cancelled the workers stop claiming jobs,
// in-flight jobs are interrupted through their own ctx checkpoints, and the
// channel is closed once every worker has exited — so a consumer that simply
// ranges over the channel never blocks forever, and no worker goroutine
// outlives the stream.
func (r Runner) Stream(ctx context.Context, jobs []Job) <-chan Outcome {
	out := make(chan Outcome)
	var next atomic.Int64
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for w := 0; w < r.poolSize(len(jobs)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if ctx.Err() != nil {
						return
					}
					k := int(next.Add(1)) - 1
					if k >= len(jobs) {
						return
					}
					start := time.Now()
					tbl, err := jobs[k].Run(ctx)
					select {
					case out <- Outcome{Index: k, ID: jobs[k].ID, Table: tbl, Err: err, Elapsed: time.Since(start)}:
					case <-ctx.Done():
						return
					}
				}
			}()
		}
		wg.Wait()
	}()
	return out
}

// Collect runs the jobs and returns their tables in job order.  If any job
// failed, the error of the earliest failing job is returned; a cancelled
// context surfaces as ctx's error.
func (r Runner) Collect(ctx context.Context, jobs []Job) ([]*Table, error) {
	tables := make([]*Table, len(jobs))
	errs := make([]error, len(jobs))
	for o := range r.Stream(ctx, jobs) {
		tables[o.Index] = o.Table
		errs[o.Index] = o.Err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", jobs[i].ID, err)
		}
	}
	return tables, nil
}

// StandardJobs returns the E1..E10 experiments with their default
// parameters, in DESIGN.md order.
func StandardJobs() []Job {
	return []Job{
		{ID: "E1", Run: Fig31},
		{ID: "E2", Run: func(ctx context.Context) (*Table, error) { return Fig41(ctx, 4) }},
		{ID: "E3", Run: Fig51},
		{ID: "E4/E5", Run: func(ctx context.Context) (*Table, error) { return RingChecks(ctx, 6) }},
		{ID: "E6", Run: func(ctx context.Context) (*Table, error) { return CorrespondenceCutoff(ctx, 6) }},
		{ID: "E6b", Run: func(ctx context.Context) (*Table, error) { return LocalRefutation(ctx, []int{100, 1000}, 25, 1) }},
		{ID: "E7", Run: func(ctx context.Context) (*Table, error) { return StateExplosion(ctx, 9) }},
		{ID: "E8", Run: func(ctx context.Context) (*Table, error) { return Minimization(ctx, 6) }},
		{ID: "E9", Run: func(ctx context.Context) (*Table, error) { return NestingConjecture(ctx, 4) }},
		{ID: "E10", Run: func(ctx context.Context) (*Table, error) { return CrossTopology(ctx, crossTopologyReach) }},
	}
}

// All runs every experiment with its default parameters on the worker pool
// and returns the tables in DESIGN.md order.
func All(ctx context.Context) ([]*Table, error) {
	return Runner{}.Collect(ctx, StandardJobs())
}

// SweepRow is one size's measurement from a correspondence sweep.
type SweepRow struct {
	// Topology names the family the row belongs to ("ring" for the
	// classic sweep).
	Topology            string
	R                   int
	States, Transitions int
	// BuildElapsed is the time to construct M_n explicitly; DecideElapsed
	// the time the refinement engine needs for the cutoff correspondence.
	BuildElapsed  time.Duration
	DecideElapsed time.Duration
	Corresponds   bool
	MaxDegree     int
	// StatesPerSec is the construction throughput of the explorer (zero
	// on rows replayed from the store).
	StatesPerSec float64
	// BuildOnly marks rows beyond the runner's decide budget: the space
	// was explored and invariant-checked, but no correspondence was
	// decided (Corresponds is meaningless on such rows).
	BuildOnly bool
	// QuotientStates counts the orbits of the instance's automorphism
	// group, reported on build-only rows of topologies with a wired
	// symmetry group (zero otherwise).
	QuotientStates int
	// CacheHit marks rows replayed from the runner's verdict store: no
	// instance was built and no refinement ran; the states, transitions
	// and degrees come from the stored (and revalidated) record.
	CacheHit bool
	Err      error
}

// SweepRowsTable renders already-collected sweep rows as one table, sorted
// by topology and size.
func SweepRowsTable(rows []SweepRow) *Table {
	rows = append([]SweepRow(nil), rows...)
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Topology != rows[b].Topology {
			return rows[a].Topology < rows[b].Topology
		}
		return rows[a].R < rows[b].R
	})
	t := &Table{
		ID:      "SWEEP",
		Title:   "Cutoff correspondence M_cutoff ~ M_n across sizes (worker pool)",
		Columns: []string{"topology", "n", "states", "transitions", "build", "states/s", "decide", "corresponds", "max degree", "orbits", "store"},
	}
	for _, row := range rows {
		topo := row.Topology
		if topo == "" {
			topo = "ring"
		}
		corresponds := fmt.Sprintf("%v", row.Corresponds)
		if row.BuildOnly {
			corresponds = "build-only"
		}
		orbits := ""
		if row.QuotientStates > 0 {
			orbits = fmt.Sprintf("%d", row.QuotientStates)
		}
		replay := ""
		if row.CacheHit {
			replay = "replay"
		}
		t.AddRow(topo, row.R, row.States, row.Transitions, row.BuildElapsed, int(row.StatesPerSec),
			row.DecideElapsed, corresponds, row.MaxDegree, orbits, replay)
	}
	t.Notes = append(t.Notes,
		"decide times the partition-refinement engine on the topology's cutoff IN relation, one index pair per orbit class of the instances' symmetry with the rest transported",
		"every 'yes' row extends the range of sizes over which Theorem 5 transfers the family's specifications",
		"build-only rows exceed the decide budget: the raw space is explored (states/s is the packed-BFS throughput) and its symmetry quotient counted (orbits), but no correspondence is decided",
		"store='replay' rows come from the persistent verdict store without building or deciding anything; rows with an empty store column were computed in this run")
	return t
}

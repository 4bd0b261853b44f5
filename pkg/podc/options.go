package podc

import "repro/internal/bisim"

// Option configures a Verifier, a correspondence computation, a Session or
// a family verification run.  Options follow the functional-options
// pattern: pass any number of them to a constructor; later options override
// earlier ones.  Options that do not apply to the receiving operation are
// ignored, so a Session can be configured once with the union of the knobs
// its operations need.
type Option func(*config)

// config is the merged option state.
type config struct {
	workers       int
	minimize      bool
	atoms         []string
	reachableOnly bool
	evidence      bool

	// family verification knobs (VerifyFamily).
	smallSize            int
	correspondenceSizes  []int
	skipRestrictionCheck bool

	// construction knobs (WithParallelBuild, WithSymmetry): parallelBuild
	// routes instance construction through the parallel packed-BFS engine
	// (byte-identical to the sequential build, so it shares the sequential
	// caches), buildWorkers caps its pool, and symmetry routes builds
	// through the certified quotient-unfold (cached under its own key,
	// since the unfolding renumbers states).
	parallelBuild bool
	buildWorkers  int
	symmetry      bool

	// persistence knob (WithStore): storeDir roots the persistent verdict
	// store a Session replays decided correspondences, certificates and
	// evidence from.
	storeDir string
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

func (c config) bisimOptions() bisim.Options {
	return bisim.Options{
		OneProps:      append([]string(nil), c.atoms...),
		ReachableOnly: c.reachableOnly,
		Workers:       c.workers,
	}
}

// WithWorkers caps the worker pools used by indexed correspondence
// computations, sweeps and experiment batteries.  Zero or negative (the
// default) means one worker per available CPU for those pools.
//
// A value greater than one additionally lets the model checker fan its
// EX/EU/EG evaluation and tableau component passes across the budget.
// Partition refinement is sequential within one decision at every setting;
// the index-pair pool overlaps decisions instead.  Every result —
// relations, degrees, work counters, evidence formulas, satisfaction sets —
// is byte-identical at every worker count (the differential batteries in
// internal/bisim and internal/mc pin this), so the knob only trades
// goroutines for latency.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithMinimize makes a Verifier quotient the structure by its verified
// maximal self-correspondence before checking.  CTL* (no nexttime) answers
// are preserved by Theorem 2; X-formulas and witness traces refer to the
// quotient.  When the quotient is refused (the degree-bounded relation is
// not always a congruence for state fusion) the verifier silently keeps the
// original structure; Verifier.Minimized reports which happened.
func WithMinimize() Option {
	return func(c *config) { c.minimize = true }
}

// WithAtoms adds the "exactly one" atoms O_i P_i of Section 4 for the named
// indexed propositions to the compared vocabulary: corresponding states
// must then agree on whether exactly one process satisfies each named
// proposition.  The token-ring correspondences of the paper need
// WithAtoms("t").
func WithAtoms(names ...string) Option {
	return func(c *config) { c.atoms = append(c.atoms, names...) }
}

// WithReachableOnly restricts the totality requirement of the
// correspondence definition to the states reachable from the initial
// states, which is the natural reading for structures that were not
// pre-restricted (the paper's M_r is a reachable restriction by
// construction, so for it the readings coincide).
func WithReachableOnly() Option {
	return func(c *config) { c.reachableOnly = true }
}

// WithSmallSize sets the size of the instance that VerifyFamily model
// checks exhaustively (the paper's Section 5 uses 2; the reproduction's
// corrected cutoff is 3).  The default is 2.
func WithSmallSize(n int) Option {
	return func(c *config) { c.smallSize = n }
}

// WithCorrespondenceSizes sets the instance sizes for which VerifyFamily
// establishes the indexed correspondence with the small instance.
func WithCorrespondenceSizes(sizes ...int) Option {
	return func(c *config) { c.correspondenceSizes = append(c.correspondenceSizes, sizes...) }
}

// WithoutRestrictionCheck disables the restricted-ICTL* well-formedness
// check in VerifyFamily; useful for experiments that deliberately step
// outside the transferable fragment.
func WithoutRestrictionCheck() Option {
	return func(c *config) { c.skipRestrictionCheck = true }
}

// WithEvidence makes correspondence operations extract machine-checked
// evidence on failure: the returned Correspondence (or
// IndexedCorrespondence) carries a distinguishing CTL* (no nexttime)
// formula — true on one side, false on the other, replayed through the
// model checker before it is handed out — plus the offending index pair
// and a game path.  Evidence extraction runs only after a verdict of "do
// not correspond", so successful decisions pay nothing.
func WithEvidence() Option {
	return func(c *config) { c.evidence = true }
}

// WithParallelBuild makes a Session construct instances through the
// parallel packed-BFS engine of internal/explore with a pool of the given
// size (zero or negative: one worker per available CPU).  The engine's
// level-synchronised numbering makes the result byte-identical
// (kripke.EncodeText) to the sequential build for every worker count, so
// parallel and sequential builds share the session's instance caches.
// Topologies without a packed definition fall back to their sequential
// Build.  Sweeps run by the session use the same pool for construction.
func WithParallelBuild(workers int) Option {
	return func(c *config) {
		c.parallelBuild = true
		c.buildWorkers = workers
	}
}

// WithSymmetry makes a Session construct topology instances by the
// certified symmetry-quotient route: explore one representative per orbit
// of the instance's automorphism group, unfold the quotient back to the
// full space through the recorded witness permutations, and verify the
// unfolding against the original definition before handing the structure
// out.  The unfolded structure is bisimilar to the direct build but
// renumbered, so it is cached under a separate key and never mixed with
// direct builds.  Topologies without a wired group fall back to their
// sequential Build.
func WithSymmetry() Option {
	return func(c *config) { c.symmetry = true }
}

// WithStore points a Session at a persistent verdict store rooted at dir
// (created if needed).  The store is a content-addressed, engine-versioned
// cache of decided correspondences, transfer certificates and failure
// evidence: a session (or a later process) asking for an already-decided
// artefact replays it from disk instead of re-running refinement.  Nothing
// is trusted on the way back in — stored entries are integrity-checked,
// certificates are re-validated clause by clause against freshly built
// instances, and stored evidence formulas are re-parsed and replayed
// through the model checker; anything that fails is discarded and
// recomputed.  A store that cannot be opened is logged once and disabled:
// caching never turns into a failed request.
func WithStore(dir string) Option {
	return func(c *config) { c.storeDir = dir }
}

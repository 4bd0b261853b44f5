package podc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/store"
)

// Session is the long-lived, serving-side entry point of the library: it
// caches built family instances, verifiers (and their memoised satisfaction
// sets), decided correspondences and finished experiment tables across
// calls, so that a process answering many verification requests — the HTTP
// service of cmd/podcserve, a REPL, a long sweep — pays for each expensive
// artefact once.
//
// Sessions are safe for concurrent use.  Identical in-flight requests are
// deduplicated: when two goroutines ask for the same correspondence, one
// computes and the other waits for the result (or for its own context to be
// cancelled — a waiter's cancellation never cancels the computing call).
// Failed computations are not cached, so a request that failed because its
// context expired can be retried.
type Session struct {
	cfg config

	// storeOnce lazily opens the persistent verdict store (WithStore); a
	// store that fails to open leaves the field nil, which is the no-op
	// store.  See store.go.
	storeOnce sync.Once
	store     *store.Store

	// cacheHits / cacheMisses / cacheJoins instrument the flight maps
	// below: a hit found a completed computation, a miss started one, and a
	// join attached to one still in flight (the in-flight dedup working).
	cacheHits, cacheMisses, cacheJoins atomic.Int64

	mu         sync.Mutex
	instances  map[instanceKey]*flight[*instance]
	verifiers  map[instanceKey]*flight[*Verifier]
	corr       map[pairKey]*flight[*IndexedCorrespondence]
	certs      map[pairKey]*flight[*TransferCertificate]
	tables     map[string]*flight[*Table]
	structures map[string]*Structure
}

// instanceKey addresses one built family instance, and its verifier, in
// the session cache.
type instanceKey struct {
	topology string
	n        int
}

// instance is one cached family instance: its structure and, for every
// packable topology, the explored space (state s of the structure is state
// s of the space), from which indexAction derives the index action.
type instance struct {
	t  family.Topology
	n  int
	m  *Structure
	sp *explore.Space

	// actionMu guards the lazily verified index action: actionDone is set
	// once action holds the answer, nil included.  A cancelled build is not
	// remembered, so a later caller retries it.
	actionMu   sync.Mutex
	actionDone bool
	action     *kripke.IndexAction
}

// indexAction returns the instance's index action, verified on first use,
// or nil when the instance has none: its topology does not pack (no
// space) or has no group, or the group fails verification.  Only cold
// decisions and Verifier ask for it, so rebuilding an instance to validate
// a stored certificate never pays for an action.
func (inst *instance) indexAction(ctx context.Context) (*kripke.IndexAction, error) {
	inst.actionMu.Lock()
	defer inst.actionMu.Unlock()
	if inst.actionDone {
		return inst.action, nil
	}
	if pi, ok := family.Packed(inst.t, inst.n); ok {
		a, err := pi.OptionalIndexAction(ctx, inst.sp, inst.m.raw())
		if err != nil {
			return nil, err
		}
		inst.action = a
	}
	inst.actionDone = true
	return inst.action, nil
}

// pairKey addresses one decided correspondence (or transfer certificate)
// in the session cache.
type pairKey struct {
	topology     string
	small, large int
}

// NewSession returns an empty Session.  Options set the session-wide
// defaults: WithWorkers caps every worker pool the session spawns,
// WithMinimize makes the session's verifiers check verified quotients.
func NewSession(opts ...Option) *Session {
	return &Session{
		cfg:        buildConfig(opts),
		instances:  make(map[instanceKey]*flight[*instance]),
		verifiers:  make(map[instanceKey]*flight[*Verifier]),
		corr:       make(map[pairKey]*flight[*IndexedCorrespondence]),
		certs:      make(map[pairKey]*flight[*TransferCertificate]),
		tables:     make(map[string]*flight[*Table]),
		structures: make(map[string]*Structure),
	}
}

// flight is one cached (or in-flight) computation.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// getOrCompute returns the cached value for key, joining an in-flight
// computation when one exists and starting one otherwise.  Errors are not
// cached: the failed entry is dropped so a later call retries.  A joined
// computation runs under the *first* caller's context; when that caller is
// cancelled, a still-healthy waiter does not inherit the foreign context
// error — it retries (becoming the new computing caller), so one client's
// disconnect never fails another client's identical request.
func getOrCompute[K comparable, T any](ctx context.Context, s *Session, m map[K]*flight[T], key K, compute func() (T, error)) (T, error) {
	for {
		s.mu.Lock()
		f, ok := m[key]
		if !ok {
			f = &flight[T]{done: make(chan struct{})}
			m[key] = f
			s.mu.Unlock()
			s.cacheMisses.Add(1)
			f.val, f.err = compute()
			if f.err != nil {
				s.mu.Lock()
				if m[key] == f {
					delete(m, key)
				}
				s.mu.Unlock()
			}
			close(f.done)
			return f.val, f.err
		}
		s.mu.Unlock()
		select {
		case <-f.done:
			s.cacheHits.Add(1)
		default:
			s.cacheJoins.Add(1)
		}
		select {
		case <-f.done:
			if f.err != nil && ctx.Err() == nil &&
				(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				// The computing caller's context died, not ours; its entry
				// has been dropped, so loop and recompute under our own.
				continue
			}
			return f.val, f.err
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// Verifier returns the cached Verifier for the topology's instance M_n;
// its memoised satisfaction sets are shared by every later check against
// that instance.  When the instance's topology packs (every built-in
// topology does) and the verifier does not check a minimized quotient, it
// carries the topology's index action,
// verified once on M_n, so Check answers a top-level "forall i" or
// "exists i" from one satisfaction set per index orbit instead of n (see
// mc.Checker.SetIndexAction).  Other verifiers instantiate the quantifier;
// the answers are the same.
func (s *Session) Verifier(ctx context.Context, topo Topology, n int) (*Verifier, error) {
	if !topo.IsValid() {
		return nil, fmt.Errorf("podc: Verifier: invalid topology (zero value)")
	}
	t := topo.t
	return getOrCompute(ctx, s, s.verifiers, instanceKey{topology: t.Name(), n: n}, func() (*Verifier, error) {
		inst, err := s.topologyInstance(ctx, t, n)
		if err != nil {
			return nil, err
		}
		// The session's full option state applies — no hand-copied subset,
		// so knobs like WithReachableOnly reach the quotient decision too.
		v, err := newVerifier(ctx, inst.m, s.cfg)
		if err != nil {
			return nil, err
		}
		// Quotient states are not instance states.
		if v.min {
			return v, nil
		}
		a, err := inst.indexAction(ctx)
		if err != nil || a == nil {
			return v, err
		}
		if err := v.checker.SetIndexAction(a); err != nil {
			return nil, err
		}
		return v, nil
	})
}

// VerifierMemoStats sums Verifier.MemoStats over the session's cached
// verifiers; verifiers still being built are skipped.  It never waits for a
// running query.
func (s *Session) VerifierMemoStats() (entries, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.verifiers {
		select {
		case <-f.done:
			if f.err == nil {
				e, b := f.val.MemoStats()
				entries += e
				bytes += b
			}
		default:
		}
	}
	return entries, bytes
}

// Instance returns the cached instance M_n of the topology, building it on
// first use.
func (s *Session) Instance(ctx context.Context, topo Topology, n int) (*Structure, error) {
	if !topo.IsValid() {
		return nil, fmt.Errorf("podc: Instance: invalid topology (zero value)")
	}
	inst, err := s.topologyInstance(ctx, topo.t, n)
	if err != nil {
		return nil, err
	}
	return inst.m, nil
}

func (s *Session) topologyInstance(ctx context.Context, t family.Topology, n int) (*instance, error) {
	return getOrCompute(ctx, s, s.instances, instanceKey{topology: t.Name(), n: n}, func() (*instance, error) {
		m, sp, err := s.buildInstance(ctx, t, n)
		if err != nil {
			return nil, err
		}
		return &instance{t: t, n: n, m: wrapStructure(m), sp: sp}, nil
	})
}

// buildInstance explores one topology instance with the session's build
// pool (one worker unless WithParallelBuild sets it).  The space is nil
// only for topologies without a packed definition, which BuildParallel
// builds sequentially.
func (s *Session) buildInstance(ctx context.Context, t family.Topology, n int) (*kripke.Structure, *explore.Space, error) {
	return family.BuildParallel(ctx, t, n, max(s.cfg.buildWorkers, 1))
}

// Correspondence decides (and caches) the topology's canonical indexed
// correspondence between M_small and M_large.  Concurrent requests for the
// same (topology, small, large) triple share one computation.  A cold
// decision passes both instances' index actions (see Verifier for which
// instances carry one), so symmetric index pairs are decided once per
// orbit class; the answer is the same either way.
func (s *Session) Correspondence(ctx context.Context, topo Topology, small, large int) (*IndexedCorrespondence, error) {
	if !topo.IsValid() {
		return nil, fmt.Errorf("podc: Correspondence: invalid topology (zero value)")
	}
	if small > large {
		return nil, fmt.Errorf("podc: Correspondence: need small <= large, got %d > %d", small, large)
	}
	t := topo.t
	return getOrCompute(ctx, s, s.corr, pairKey{topology: t.Name(), small: small, large: large}, func() (*IndexedCorrespondence, error) {
		st := s.verdictStore()
		key := s.storeKey("correspondence", t, small, large)
		var rec store.CorrespondenceRecord
		if ok, err := st.Get(key, &rec); err == nil && ok {
			// Restore audits the record's internal consistency; a record
			// that fails it is recomputed like any other miss.
			if res, rerr := rec.Restore(); rerr == nil {
				return &IndexedCorrespondence{res: res, in: indexPairsFromRaw(t.IndexRelation(small, large)), restored: true}, nil
			}
		}
		sm, err := s.topologyInstance(ctx, t, small)
		if err != nil {
			return nil, err
		}
		lg, err := s.topologyInstance(ctx, t, large)
		if err != nil {
			return nil, err
		}
		smallAction, err := sm.indexAction(ctx)
		if err != nil {
			return nil, err
		}
		largeAction, err := lg.indexAction(ctx)
		if err != nil {
			return nil, err
		}
		res, err := family.DecideBuilt(ctx, t, sm.m.raw(), small, lg.m.raw(), large, smallAction, largeAction)
		if err != nil {
			return nil, err
		}
		storePut(st, key, store.RecordIndexed(res))
		return &IndexedCorrespondence{res: res, in: indexPairsFromRaw(t.IndexRelation(small, large))}, nil
	})
}

// CorrespondenceEvidence returns the machine-checked evidence for a failed
// correspondence between M_small and M_large of the topology: the failing
// index pair, the distinguishing formula over its reductions (replayed
// through the model checker) and the game path.  It returns nil when the
// instances correspond.  The underlying correspondence and instances are
// served from (and populate) the session caches; only the evidence
// extraction itself is recomputed per call.
func (s *Session) CorrespondenceEvidence(ctx context.Context, topo Topology, small, large int) (*Evidence, error) {
	corr, err := s.Correspondence(ctx, topo, small, large)
	if err != nil {
		return nil, err
	}
	if corr.Corresponds() {
		return nil, nil
	}
	t := topo.t
	st := s.verdictStore()
	key := s.storeKey("evidence", t, small, large)
	var rec store.EvidenceRecord
	if ok, err := st.Get(key, &rec); err == nil && ok {
		// Stored evidence re-enters through the replay gate: the formula is
		// re-parsed and re-checked on the pair's rebuilt reductions.  A
		// record that fails is discarded and the evidence re-extracted.
		if ev, rerr := s.replayEvidenceRecord(ctx, t, small, large, &rec); rerr == nil {
			return ev, nil
		}
	}
	sm, err := s.topologyInstance(ctx, t, small)
	if err != nil {
		return nil, err
	}
	lg, err := s.topologyInstance(ctx, t, large)
	if err != nil {
		return nil, err
	}
	fev, err := family.ExplainBuilt(ctx, t, sm.m.raw(), small, lg.m.raw(), large, corr.res)
	if err != nil {
		return nil, err
	}
	if fev != nil {
		storePut(st, key, evidenceRecordFromFamily(fev))
	}
	return evidenceFromFamily(fev), nil
}

// sessionFamily adapts a topology to the Family interface with instance
// builds served from the session cache.
func (s *Session) sessionFamily(ctx context.Context, t family.Topology) Family {
	return &FamilyFunc{
		FamilyName: t.Name(),
		BuildFunc: func(n int) (*Structure, error) {
			inst, err := s.topologyInstance(ctx, t, n)
			if err != nil {
				return nil, err
			}
			return inst.m, nil
		},
		Indices: func(small, n int) []IndexPair {
			return indexPairsFromRaw(t.IndexRelation(small, n))
		},
		AtomNames: t.Atoms(),
	}
}

// TransferCertificate builds (and caches) the topology's transfer
// certificate for the pair (small, large): the serialisable per-index-pair
// relations that justify transferring restricted ICTL* truth from M_small
// to M_large.
func (s *Session) TransferCertificate(ctx context.Context, topo Topology, small, large int) (*TransferCertificate, error) {
	if !topo.IsValid() {
		return nil, fmt.Errorf("podc: TransferCertificate: invalid topology (zero value)")
	}
	if small > large {
		return nil, fmt.Errorf("podc: TransferCertificate: need small <= large, got %d > %d", small, large)
	}
	t := topo.t
	return getOrCompute(ctx, s, s.certs, pairKey{topology: t.Name(), small: small, large: large}, func() (*TransferCertificate, error) {
		st := s.verdictStore()
		key := s.storeKey("certificate", t, small, large)
		var raw json.RawMessage
		if ok, err := st.Get(key, &raw); err == nil && ok {
			// A stored certificate is never trusted as-is: its relations are
			// re-checked clause by clause against freshly built (session-
			// cached) instances, which is the certificate's whole point —
			// validation is cheap, the decision procedure is not.
			if cert, cerr := TransferCertificateFromJSON(raw); cerr == nil {
				if cert.Validate(s.sessionFamily(ctx, t)) == nil {
					return cert, nil
				}
			}
		}
		// Package the session's own decision of the pair rather than
		// deciding it a second time.  A correspondence restored from the
		// store has passed only Restore's structural audit, so its
		// certificate is validated like a stored one, and the pair is
		// decided afresh if either fails.
		corr, err := s.Correspondence(ctx, topo, small, large)
		if err != nil {
			return nil, err
		}
		var cert *TransferCertificate
		decided, err := core.CertificateFrom(t.Name(), small, large, t.Atoms(), t.IndexRelation(small, large), corr.res)
		if err == nil {
			cert = &TransferCertificate{cert: decided}
		}
		if corr.restored && (err != nil || cert.Validate(s.sessionFamily(ctx, t)) != nil) {
			cert, err = BuildTransferCertificate(ctx, s.sessionFamily(ctx, t), small, large)
		}
		if err != nil {
			return nil, err
		}
		storePut(st, key, cert)
		return cert, nil
	})
}

// AddStructure registers a named structure with the session, so later
// Check calls (and HTTP requests) can refer to it by name.  Re-registering
// a name replaces the previous structure.
func (s *Session) AddStructure(name string, m *Structure) error {
	if name == "" {
		return fmt.Errorf("podc: AddStructure: empty name")
	}
	if m == nil {
		return fmt.Errorf("podc: AddStructure: nil structure")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.structures[name] = m
	return nil
}

// StructureByName returns a structure previously registered with
// AddStructure.
func (s *Session) StructureByName(name string) (*Structure, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.structures[name]
	return m, ok
}

// SweepResult is one size's verdict from a sweep, streamed as soon as it
// is decided.
type SweepResult struct {
	Topology    string        `json:"topology"`
	R           int           `json:"r"`
	States      int           `json:"states"`
	Transitions int           `json:"transitions"`
	Corresponds bool          `json:"corresponds"`
	MaxDegree   int           `json:"max_degree"`
	Build       time.Duration `json:"build_ns"`
	Decide      time.Duration `json:"decide_ns"`
	// StatesPerSec is the packed-BFS construction throughput (zero when
	// the sequential fallback built the instance).
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
	// BuildOnly marks sizes beyond the decide budget: the space was
	// explored and invariant-checked, but no correspondence was decided
	// (Corresponds is meaningless on such rows).
	BuildOnly bool `json:"build_only,omitempty"`
	// QuotientStates counts the orbits of the instance's automorphism
	// group on build-only rows (zero otherwise).
	QuotientStates int `json:"quotient_states,omitempty"`
	// CacheHit marks sizes replayed from the session's persistent verdict
	// store (WithStore): nothing was built or decided for them.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Err is non-nil when this size failed (the sweep continues with the
	// remaining sizes).
	Err error `json:"-"`
}

// errorSweep yields one failed SweepResult per requested size, so
// configuration errors surface through the same stream the consumer is
// already reading.
func errorSweep(err error, sizes []int) iter.Seq[SweepResult] {
	return func(yield func(SweepResult) bool) {
		for _, n := range sizes {
			if !yield(SweepResult{R: n, Err: err}) {
				return
			}
		}
	}
}

// SweepTopology decides the cutoff correspondence M_cutoff ~ M_n of the
// topology for every requested size on a worker pool and yields each
// verdict the moment it is decided, in completion order.  Breaking out of
// the iteration cancels the remaining work; cancelling ctx ends the stream
// early.  Every verdict that comes back true extends the range of sizes
// over which Theorem 5 transfers the family's specifications.
func (s *Session) SweepTopology(ctx context.Context, topo Topology, sizes []int) iter.Seq[SweepResult] {
	if !topo.IsValid() {
		return errorSweep(fmt.Errorf("podc: SweepTopology: invalid topology (zero value)"), sizes)
	}
	runner := experiments.Runner{
		Workers:      s.cfg.workers,
		BuildWorkers: s.cfg.buildWorkers,
		Store:        s.verdictStore(),
	}
	return func(yield func(SweepResult) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ch := runner.TopologySweep(ctx, topo.t, sizes)
		for row := range ch {
			res := SweepResult{
				Topology:       row.Topology,
				R:              row.R,
				States:         row.States,
				Transitions:    row.Transitions,
				Corresponds:    row.Corresponds,
				MaxDegree:      row.MaxDegree,
				Build:          row.BuildElapsed,
				Decide:         row.DecideElapsed,
				StatesPerSec:   row.StatesPerSec,
				BuildOnly:      row.BuildOnly,
				QuotientStates: row.QuotientStates,
				CacheHit:       row.CacheHit,
				Err:            row.Err,
			}
			if !yield(res) {
				cancel()
				for range ch { // let the pool drain and exit
				}
				return
			}
		}
	}
}

// SweepResultsTable renders already-collected sweep results as one table,
// sorted by topology and size, without re-running anything.
func SweepResultsTable(rows []SweepResult) *Table {
	raw := make([]experiments.SweepRow, len(rows))
	for i, r := range rows {
		raw[i] = experiments.SweepRow{
			Topology:       r.Topology,
			R:              r.R,
			States:         r.States,
			Transitions:    r.Transitions,
			BuildElapsed:   r.Build,
			DecideElapsed:  r.Decide,
			Corresponds:    r.Corresponds,
			MaxDegree:      r.MaxDegree,
			StatesPerSec:   r.StatesPerSec,
			BuildOnly:      r.BuildOnly,
			QuotientStates: r.QuotientStates,
			CacheHit:       r.CacheHit,
			Err:            r.Err,
		}
	}
	return tableFromRaw(experiments.SweepRowsTable(raw))
}

// ExperimentIDs returns the identifiers of the standard experiment battery
// (E1..E9, in DESIGN.md order).
func ExperimentIDs() []string {
	jobs := experiments.StandardJobs()
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// findExperimentJob resolves an experiment identifier, tolerating the
// compound "E4/E5" identifier being addressed by either half (useful for
// URL paths).
func findExperimentJob(id string) (experiments.Job, bool) {
	for _, j := range experiments.StandardJobs() {
		if j.ID == id {
			return j, true
		}
		for _, part := range strings.Split(j.ID, "/") {
			if part == id {
				return j, true
			}
		}
	}
	return experiments.Job{}, false
}

// Experiment runs (and caches) one experiment of the standard battery by
// identifier and returns its table.  Concurrent requests for the same
// identifier share one run.
func (s *Session) Experiment(ctx context.Context, id string) (*Table, error) {
	job, ok := findExperimentJob(id)
	if !ok {
		return nil, fmt.Errorf("podc: unknown experiment %q (have %s)", id, strings.Join(ExperimentIDs(), ", "))
	}
	return getOrCompute(ctx, s, s.tables, job.ID, func() (*Table, error) {
		tbl, err := job.Run(ctx)
		if err != nil {
			return nil, err
		}
		return tableFromRaw(tbl), nil
	})
}

// ExperimentResult is one streamed outcome of Experiments.
type ExperimentResult struct {
	ID      string        `json:"id"`
	Table   *Table        `json:"table,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Err     error         `json:"-"`
}

// Experiments runs the named experiments (all of them when ids is empty) on
// a worker pool and yields each table the moment its experiment finishes,
// in completion order.  Results are cached in the session; already-cached
// experiments are yielded immediately.  Breaking out of the iteration
// cancels the remaining work.
func (s *Session) Experiments(ctx context.Context, ids []string) iter.Seq[ExperimentResult] {
	return func(yield func(ExperimentResult) bool) {
		var jobs []experiments.Job
		if len(ids) == 0 {
			jobs = experiments.StandardJobs()
		} else {
			//lint:ctxloop job-list validation, bounded by the requested experiment ids
			for _, id := range ids {
				job, ok := findExperimentJob(id)
				if !ok {
					if !yield(ExperimentResult{ID: id, Err: fmt.Errorf("podc: unknown experiment %q", id)}) {
						return
					}
					continue
				}
				jobs = append(jobs, job)
			}
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		runner := experiments.Runner{Workers: s.cfg.workers}
		wrapped := make([]experiments.Job, len(jobs))
		for i, job := range jobs {
			job := job
			wrapped[i] = experiments.Job{ID: job.ID, Run: func(ctx context.Context) (*experiments.Table, error) {
				tbl, err := getOrCompute(ctx, s, s.tables, job.ID, func() (*Table, error) {
					t, err := job.Run(ctx)
					if err != nil {
						return nil, err
					}
					return tableFromRaw(t), nil
				})
				if err != nil {
					return nil, err
				}
				return tbl.raw(), nil
			}}
		}
		ch := runner.Stream(ctx, wrapped)
		for o := range ch {
			res := ExperimentResult{ID: o.ID, Table: tableFromRaw(o.Table), Elapsed: o.Elapsed, Err: o.Err}
			if !yield(res) {
				cancel()
				for range ch {
				}
				return
			}
		}
	}
}

// CacheStats is a snapshot of a Session's in-memory cache counters, one
// event per flight-map lookup: a Hit found a completed computation, a Miss
// started a fresh one, and a Join attached to an identical computation that
// was still in flight (the in-flight dedup saving a duplicate run).  A
// waiter that retries after the computing caller's context died counts its
// retry as a fresh lookup.
type CacheStats struct {
	Hits, Misses, Joins int64
}

// CacheStats reports the session's cache counters across every cached
// artefact kind (instances, verifiers, correspondences, certificates,
// experiment tables).
func (s *Session) CacheStats() CacheStats {
	return CacheStats{
		Hits:   s.cacheHits.Load(),
		Misses: s.cacheMisses.Load(),
		Joins:  s.cacheJoins.Load(),
	}
}

// CachedExperimentIDs returns the identifiers of experiments whose tables
// the session has already computed, sorted.
func (s *Session) CachedExperimentIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id, f := range s.tables {
		select {
		case <-f.done:
			if f.err == nil {
				out = append(out, id)
			}
		default:
		}
	}
	sort.Strings(out)
	return out
}

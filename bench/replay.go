package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/store"
	"repro/pkg/podc"
)

// The replay workload is the read side of the verdict store: set-up
// decides a correspondence and a transfer certificate for every topology's
// cutoff -> n pair, n in 4..8, into a fresh store; each timed pass is a
// fresh session on that store answering all of them.  Store reads and
// revalidation do the work (Restore; certificate validation, which
// rebuilds both instances and re-runs bisim.Check), and no refinement may
// run.

const replayMaxN = 8

// replayKey is one (topology, cutoff, n) pair.
type replayKey struct {
	topo         podc.Topology
	small, large int
}

func (k replayKey) String() string { return fmt.Sprintf("%s %d~%d", k.topo.Name(), k.small, k.large) }

func replayKeys() []replayKey {
	var keys []replayKey
	for _, t := range podc.Topologies() {
		for n := sweepMin; n <= replayMaxN; n++ {
			if t.ValidSize(n) == nil && n >= t.CutoffSize() {
				keys = append(keys, replayKey{topo: t, small: t.CutoffSize(), large: n})
			}
		}
	}
	return keys
}

// corrAnswer is the observable content of a correspondence verdict, the
// fields podcserve's /v1/correspond reports.
type corrAnswer struct {
	Topology     string           `json:"topology"`
	Small        int              `json:"small"`
	Large        int              `json:"large"`
	Corresponds  bool             `json:"corresponds"`
	MaxDegree    int              `json:"max_degree"`
	IndexPairs   int              `json:"index_pairs"`
	FailingPairs []podc.IndexPair `json:"failing_pairs,omitempty"`
}

// answerDigest is the SHA-256 of a key's answer: the correspondence
// verdict and the certificate JSON.  Both come out of encoding/json, whose
// output for a given value is canonical (fixed field order, sorted map
// keys, no insignificant space), so equal digests mean equal answers.
func answerDigest(corr corrAnswer, cert []byte) (string, error) {
	blob, err := json.Marshal(corr)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(blob)
	h.Write(cert)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sessionAnswer is one key answered through a podc.Session.
type sessionAnswer struct {
	key  replayKey
	corr *podc.IndexedCorrespondence
	cert *podc.TransferCertificate
	ms   float64
}

func (a sessionAnswer) digest() (string, error) {
	cert, err := json.Marshal(a.cert)
	if err != nil {
		return "", err
	}
	return answerDigest(corrAnswer{
		Topology: a.key.topo.Name(), Small: a.key.small, Large: a.key.large,
		Corresponds: a.corr.Corresponds(), MaxDegree: a.corr.MaxDegree(),
		IndexPairs: len(a.corr.IndexRelation()), FailingPairs: a.corr.FailingPairs(),
	}, cert)
}

// sessionPass answers every key with one fresh session on the store, the
// way a restarted service would.
func sessionPass(ctx context.Context, dir string, keys []replayKey) ([]sessionAnswer, *podc.Session, error) {
	s := podc.NewSession(podc.WithStore(dir))
	out := make([]sessionAnswer, 0, len(keys))
	for _, k := range keys {
		start := time.Now()
		corr, err := s.Correspondence(ctx, k.topo, k.small, k.large)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", k, err)
		}
		cert, err := s.TransferCertificate(ctx, k.topo, k.small, k.large)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", k, err)
		}
		out = append(out, sessionAnswer{key: k, corr: corr, cert: cert, ms: ms(time.Since(start))})
	}
	return out, s, nil
}

func runReplay(ctx context.Context, cfg Config, work string, tr *tracer) (*outcome, error) {
	rng := rand.New(rand.NewPCG(cfg.Seed, 2))
	keys := replayKeys()
	shuffled := func() []replayKey {
		k := append([]replayKey(nil), keys...)
		rng.Shuffle(len(k), func(a, b int) { k[a], k[b] = k[b], k[a] })
		return k
	}
	o := &outcome{tailPct: 90}
	answers := make(map[string]string, len(keys))
	check := func(k replayKey, digest string, corresponds bool) {
		o.attempted++
		if !corresponds {
			o.fail("replay %s: does not correspond", k)
		}
		if want, ok := answers[k.String()]; !ok {
			answers[k.String()] = digest
		} else if digest != want {
			o.fail("replay %s: answer differs from the set-up decision", k)
		}
	}

	// Set-up: decide every key cold into a fresh store.  The answers of the
	// first repetition are the reference every later answer must equal.
	var dir string
	for rep := range cfg.SetupReps {
		dir = filepath.Join(work, fmt.Sprintf("store-%d", rep))
		runtime.GC()
		start := time.Now()
		got, _, err := sessionPass(ctx, dir, shuffled())
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		for _, a := range got {
			d, err := a.digest()
			if err != nil {
				return nil, err
			}
			check(a.key, d, a.corr.Corresponds())
		}
	}

	var stores storeCounts
	var cache podc.CacheStats
	var bytesRead int64
	tracedStates := 0
	var meter opMeter
	callsBefore := bisim.ComputeCalls()
	start := time.Now()
	for k := 0; cfg.more(start, k); k++ {
		order := shuffled()
		calls := bisim.ComputeCalls()
		if err := meter.begin(); err != nil {
			return nil, err
		}
		var st store.Stats
		if cfg.traced(k) {
			got, stats, err := tracedPass(ctx, tr, dir, order, int64(k))
			if err != nil {
				return nil, err
			}
			d, err := meter.end()
			if err != nil {
				return nil, err
			}
			o.tracedOps = append(o.tracedOps, ms(d))
			st = stats.Stats
			bytesRead += stats.bytesRead
			tracedStates += stats.states
			for _, a := range got {
				d, err := answerDigest(a.corr, a.cert)
				if err != nil {
					return nil, err
				}
				check(a.key, d, a.corresponds)
			}
		} else {
			got, s, err := sessionPass(ctx, dir, order)
			if err != nil {
				return nil, err
			}
			d, err := meter.end()
			if err != nil {
				return nil, err
			}
			o.ops = append(o.ops, ms(d))
			st, _ = s.StoreStats()
			cs := s.CacheStats()
			cache.Hits, cache.Misses, cache.Joins = cache.Hits+cs.Hits, cache.Misses+cs.Misses, cache.Joins+cs.Joins
			for _, a := range got {
				o.sub = append(o.sub, a.ms)
				d, err := a.digest()
				if err != nil {
					return nil, err
				}
				check(a.key, d, a.corr.Corresponds())
			}
		}
		o.units += len(order)
		stores.add(st)
		if n := bisim.ComputeCalls() - calls; n != 0 {
			o.fail("replay pass %d: %d refinements ran; a populated store must answer every key", k, n)
		}
		if st.Misses != 0 || st.Invalid != 0 {
			o.fail("replay pass %d: store misses %d, invalid %d; want 0", k, st.Misses, st.Invalid)
		}
	}
	meter.fill(o)
	o.note("keys_per_pass", len(keys))

	if cfg.Trace {
		nops := float64(len(o.ops) + len(o.tracedOps))
		traced := float64(len(o.tracedOps))
		o.spans = tr.snapshot()
		o.layer = spanLayerMetrics(o.spans, traced)
		buildNS := selfNS(o.spans, byLayer("explore"))
		o.layer["explore.states_per_s"] = float64(tracedStates) / (float64(buildNS) / 1e9)
		o.layer["bisim.refinements"] = float64(bisim.ComputeCalls()-callsBefore) / nops
		o.layer["store.bytes_read"] = float64(bytesRead) / traced
		stores.perOp(o.layer, nops)
		if n := cache.Hits + cache.Misses + cache.Joins; n > 0 {
			o.layer["session.hit_ratio"] = float64(cache.Hits) / float64(n)
		}
	}
	return o, nil
}

// tracedAnswer is one key answered by the re-driven path.
type tracedAnswer struct {
	key         replayKey
	corr        corrAnswer
	cert        json.RawMessage
	corresponds bool
}

type tracedPassStats struct {
	store.Stats
	bytesRead int64
	states    int
}

// tracedPass re-drives one pass through the public calls a session makes
// on a store hit, with a span around each: store.Get and Restore for the
// correspondence; store.Get for the certificate, then its validation —
// decode, build both instances (cached for the pass, as the session caches
// them), and for every index pair reduce both sides and run bisim.Check.
func tracedPass(ctx context.Context, tr *tracer, dir string, keys []replayKey, req int64) ([]tracedAnswer, tracedPassStats, error) {
	var stats tracedPassStats
	st, err := store.Open(dir)
	if err != nil {
		return nil, stats, err
	}
	root := tr.start(layerBench, "pass", 0, req)
	defer root.end()
	instances := make(map[string]*kripke.Structure)
	build := func(t family.Topology, n int, parent int64) (*kripke.Structure, error) {
		if m, ok := instances[cellKey(t.Name(), n)]; ok {
			return m, nil
		}
		sp := tr.start("explore", "Topology.Build", parent, req)
		m, err := t.Build(n)
		sp.end()
		if err != nil {
			return nil, err
		}
		instances[cellKey(t.Name(), n)] = m
		stats.states += m.NumStates()
		return m, nil
	}
	get := func(key store.Key, into any, parent int64) error {
		sp := tr.start("store", "store.Get", parent, req)
		hit, err := st.Get(key, into)
		sp.end()
		if err != nil {
			return err
		}
		if !hit {
			return fmt.Errorf("store miss for %s", key.Kind)
		}
		if fi, err := os.Stat(filepath.Join(st.Dir(), key.Hash()+".json")); err == nil {
			stats.bytesRead += fi.Size()
		}
		return nil
	}

	out := make([]tracedAnswer, 0, len(keys))
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		t, ok := family.ByName(k.topo.Name())
		if !ok {
			return nil, stats, fmt.Errorf("unknown topology %q", k.topo.Name())
		}
		ks := tr.start(layerBench, "key "+k.String(), root.id(), req)
		key := store.Key{Kind: "correspondence", Topology: t.Name(), Small: k.small, Large: k.large, Atoms: t.Atoms(), ReachableOnly: true}
		var rec store.CorrespondenceRecord
		if err := get(key, &rec, ks.id()); err != nil {
			return nil, stats, fmt.Errorf("%s: %w", k, err)
		}
		sp := tr.start("store", "CorrespondenceRecord.Restore", ks.id(), req)
		res, err := rec.Restore()
		sp.end()
		if err != nil {
			return nil, stats, fmt.Errorf("%s: %w", k, err)
		}

		key.Kind = "certificate"
		var raw json.RawMessage
		if err := get(key, &raw, ks.id()); err != nil {
			return nil, stats, fmt.Errorf("%s: %w", k, err)
		}
		v := tr.start("core", "TransferCertificate.Validate", ks.id(), req)
		var cert core.TransferCertificate
		if err := json.Unmarshal(raw, &cert); err != nil {
			return nil, stats, fmt.Errorf("%s: decoding certificate: %w", k, err)
		}
		small, err := build(t, cert.SmallSize, v.id())
		if err != nil {
			return nil, stats, err
		}
		large, err := build(t, cert.LargeSize, v.id())
		if err != nil {
			return nil, stats, err
		}
		opts := bisim.Options{OneProps: cert.OneProps, ReachableOnly: true}
		valid := true
		for _, p := range cert.Pairs {
			sp := tr.start("kripke", "Structure.ReduceNormalized", v.id(), req)
			left, right := small.ReduceNormalized(p.I), large.ReduceNormalized(p.I2)
			sp.end()
			sp = tr.start("bisim", "bisim.Check", v.id(), req)
			violations := bisim.Check(left, right, p.Relation, opts)
			sp.end()
			valid = valid && len(violations) == 0
		}
		v.end()
		ks.end()

		corr := corrAnswer{
			Topology: t.Name(), Small: k.small, Large: k.large,
			Corresponds: res.Corresponds(), IndexPairs: len(t.IndexRelation(k.small, k.large)),
		}
		for _, p := range res.Pairs {
			corr.MaxDegree = max(corr.MaxDegree, p.Relation.MaxDegree())
		}
		for _, p := range res.FailingPairs() {
			corr.FailingPairs = append(corr.FailingPairs, podc.IndexPair{I: p.I, I2: p.I2})
		}
		out = append(out, tracedAnswer{key: k, corr: corr, cert: raw, corresponds: res.Corresponds() && valid})
	}
	stats.Stats = st.Stats()
	return out, stats, nil
}

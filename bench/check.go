package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
)

// The check workload sends seeded model-checking requests to podcserve:
// each is "forall i . φ(i)" for a random φ of depth 3 over the ring's
// indexed atoms, against a ring drawn uniformly from checkRings (all built
// during set-up).  logic, mc and the handler do the work; the inputs share
// subformulas through the server's per-ring verifier memo.  After the timed
// phase an in-process oracle — its own build of each ring through the
// packed explorer and its own mc.Checker — re-decides every answer.

var (
	checkRings   = []int{6, 8, 10}
	formulaAtoms = []string{"d", "t", "c", "n"}
)

const (
	formulaDepth = 3
	// prebuildFormula is the set-up request that makes podcserve build
	// each ring and its verifier before the timed phase.
	prebuildFormula = "forall i . AG (d[i] -> AF c[i])"
	// memoSample is how many answers per ring the traced run re-checks
	// with fresh checkers to measure the memo's share.
	memoSample = 50
	// checkRequestsPerSecond sizes the timed phase: a run of S seconds
	// sends S times this many requests (8,000 at 20 s).  The verifier memo
	// makes later requests cheaper and the server larger, so the count is
	// fixed rather than however many the host's speed allows; every run of
	// one length then sees the same memo curve.
	checkRequestsPerSecond = 400
)

// checkRequests is the timed phase's request count for cfg (Config.MaxOps
// may cap it further).
func checkRequests(cfg Config) int { return max(1, int(cfg.Seconds*checkRequestsPerSecond)) }

// checkRequest returns request i of the check workload for seed: the ring
// size and the formula text.  It depends on (seed, i) alone, so the first
// n requests of a run are the same whatever the clients' interleaving.
func checkRequest(seed uint64, i int) (ring int, formula string) {
	rng := rand.New(rand.NewPCG(seed, uint64(i)))
	ring = checkRings[rng.IntN(len(checkRings))]
	return ring, "forall i . (" + genFormula(rng, formulaDepth) + ")"
}

// genFormula draws a formula of exactly the given operator depth over the
// operators ! & | EX AF EG AG E[U] A[U] and the atoms {d,t,c,n}[i].
func genFormula(rng *rand.Rand, depth int) string {
	if depth == 0 {
		return formulaAtoms[rng.IntN(len(formulaAtoms))] + "[i]"
	}
	sub := func() string { return "(" + genFormula(rng, depth-1) + ")" }
	switch rng.IntN(9) {
	case 0:
		return "!" + sub()
	case 1:
		return sub() + " & " + sub()
	case 2:
		return sub() + " | " + sub()
	case 3:
		return "EX " + sub()
	case 4:
		return "AF " + sub()
	case 5:
		return "EG " + sub()
	case 6:
		return "AG " + sub()
	case 7:
		return "E[" + sub() + " U " + sub() + "]"
	default:
		return "A[" + sub() + " U " + sub() + "]"
	}
}

// checkResponse mirrors the fields of podcserve's /v1/check answer.
type checkResponse struct {
	Holds      bool   `json:"holds"`
	Formula    string `json:"formula"`
	Structure  string `json:"structure"`
	States     int    `json:"states"`
	Restricted bool   `json:"restricted"`
}

func checkBody(ring int, formula string) request {
	body, _ := json.Marshal(map[string]any{"ring": ring, "formula": formula}) // a map of a string and an int always marshals
	return request{method: http.MethodPost, path: "/v1/check", body: body}
}

func runCheck(ctx context.Context, cfg Config, work string, tr *tracer) (*outcome, error) {
	bin, err := serverBinary(ctx, cfg)
	if err != nil {
		return nil, err
	}
	client := newClient(clients())
	defer client.CloseIdleConnections()
	o := &outcome{tailPct: 99}

	// Set-up: start podcserve and have it build every ring and verifier.
	// The timed phase runs against the last server started.
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for range cfg.SetupReps {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return nil, fmt.Errorf("stopping podcserve: %w", err)
			}
		}
		start := time.Now()
		if srv, err = startServer(ctx, bin, client); err != nil {
			return nil, err
		}
		for _, r := range checkRings {
			resp := send(ctx, client, srv.base, checkBody(r, prebuildFormula))
			if resp.err != nil || resp.status != http.StatusOK {
				return nil, fmt.Errorf("prebuilding ring %d: status %d %v: %s", r, resp.status, resp.err, resp.body)
			}
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	var mu sync.Mutex
	answers := make(map[int]checkResponse)
	gen := func(i int) request { return checkBody(checkRequest(cfg.Seed, i)) }
	verify := func(i int, r response) bool {
		var resp checkResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return false
		}
		mu.Lock()
		answers[i] = resp
		mu.Unlock()
		return true
	}
	ph, err := closedLoop(ctx, cfg, o, tr, srv, client, checkRequests(cfg), time.Time{}, gen, verify)
	if err != nil {
		return nil, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, fmt.Errorf("stopping podcserve: %w", err)
	}

	oracleLayer, err := checkOracle(ctx, cfg, o, tr, answers)
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		o.spans = tr.snapshot()
		o.layer = httpLayerMetrics(ph, "/v1/check")
		for k, v := range oracleLayer {
			o.layer[k] = v
		}
	}
	return o, nil
}

// checkOracle re-decides every answer after the timed phase: each ring is
// built through the packed explorer (not the ring package podcserve uses)
// and its formulas are parsed and checked by one mc.Checker of the
// oracle's own.  Rings are checked in parallel, up to GOMAXPROCS at once.
// It returns the oracle's per-layer metrics.
func checkOracle(ctx context.Context, cfg Config, o *outcome, tr *tracer, answers map[int]checkResponse) (map[string]float64, error) {
	byRing := make(map[int][]int)
	for i := range answers {
		ring, _ := checkRequest(cfg.Seed, i)
		byRing[ring] = append(byRing[ring], i)
	}
	results := make([]ringOracle, len(checkRings))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	// Largest ring first: it takes longest.
	for k := len(checkRings) - 1; k >= 0; k-- {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[k] = oracleRing(ctx, cfg, tr, checkRings[k], byRing[checkRings[k]], answers)
		}()
	}
	wg.Wait()

	var stats mc.Stats
	states, memoShared, memoFresh := 0, 0, 0
	for _, res := range results {
		if res.err != nil {
			return nil, res.err
		}
		for _, f := range res.failures {
			o.fail("%s", f)
		}
		stats.StateSetsComputed += res.stats.StateSetsComputed
		stats.FixpointIterations += res.stats.FixpointIterations
		states += res.states
		memoShared += res.memoShared
		memoFresh += res.memoFresh
	}
	if !cfg.Trace {
		return nil, nil
	}
	n := float64(max(len(answers), 1))
	spans := tr.snapshot()
	layer := spanLayerMetrics(spans, n)
	buildNS := selfNS(spans, byName("explore.Build"))
	layer["explore.states_per_s"] = float64(states) / (float64(buildNS) / 1e9)
	layer["mc.state_sets_computed"] = float64(stats.StateSetsComputed) / n
	layer["mc.fixpoint_iterations"] = float64(stats.FixpointIterations) / n
	if memoFresh > 0 {
		layer["mc.memo_hit_ratio"] = 1 - float64(memoShared)/float64(memoFresh)
	}
	return layer, nil
}

// ringOracle is the oracle's verdict on one ring's answers.
type ringOracle struct {
	failures              []string
	stats                 mc.Stats
	states                int
	memoShared, memoFresh int
	err                   error
}

func oracleRing(ctx context.Context, cfg Config, tr *tracer, r int, idx []int, answers map[int]checkResponse) ringOracle {
	var res ringOracle
	slices.Sort(idx)
	sp := tr.start("explore", "explore.Build", 0, -1)
	m, err := buildRing(ctx, r)
	sp.end()
	if err != nil {
		res.err = err
		return res
	}
	res.states = m.NumStates()
	checker := mc.New(m)
	for _, i := range idx {
		_, text := checkRequest(cfg.Seed, i)
		got := answers[i]
		sp := tr.start("logic", "logic.Parse", 0, int64(i))
		f, err := logic.Parse(text)
		sp.end()
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("check %d: oracle cannot parse %q: %v", i, text, err))
			continue
		}
		sp = tr.start("mc", "Checker.Holds", 0, int64(i))
		holds, err := checker.Holds(ctx, f)
		sp.end()
		if err != nil {
			res.err = fmt.Errorf("oracle check %d: %w", i, err)
			return res
		}
		want := checkResponse{Holds: holds, Formula: f.String(), Structure: m.Name(), States: m.NumStates(), Restricted: logic.IsRestricted(f)}
		if got != want {
			res.failures = append(res.failures, fmt.Sprintf("check %d on ring %d: server answered %+v, oracle %+v", i, r, got, want))
		}
	}
	res.stats = checker.Stats()
	if cfg.Trace {
		res.memoShared, res.memoFresh, res.err = memoShare(ctx, m, cfg.Seed, idx[:min(len(idx), memoSample)])
	}
	return res
}

// buildRing builds the ring M_r through the packed explorer.
func buildRing(ctx context.Context, r int) (*kripke.Structure, error) {
	pi, ok := family.Packed(family.Ring(), r)
	if !ok {
		return nil, fmt.Errorf("ring %d has no packed definition", r)
	}
	m, _, err := explore.Build(ctx, pi.Def, explore.Options{MaxStates: pi.MaxStates})
	if err != nil {
		return nil, err
	}
	return pi.FinishBuilt(m)
}

// memoShare counts the satisfaction sets the formulas of idx need with
// one shared checker (as podcserve's per-ring verifier has) and with a
// fresh checker each; one minus their ratio is the memo's hit share.
func memoShare(ctx context.Context, m *kripke.Structure, seed uint64, idx []int) (shared, fresh int, err error) {
	sc := mc.New(m)
	for _, i := range idx {
		_, text := checkRequest(seed, i)
		f, err := logic.Parse(text)
		if err != nil {
			return 0, 0, err
		}
		if _, err := sc.Holds(ctx, f); err != nil {
			return 0, 0, err
		}
		fc := mc.New(m)
		if _, err := fc.Holds(ctx, f); err != nil {
			return 0, 0, err
		}
		fresh += fc.Stats().StateSetsComputed
	}
	return sc.Stats().StateSetsComputed, fresh, nil
}

package podc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/pkg/podc"
)

func TestSessionCachesRingsAndVerifiers(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession(podc.WithWorkers(2))
	ring := podc.RingTopology()
	m1, err := s.Instance(ctx, ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Instance(ctx, ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("Session.Instance must return the cached instance")
	}
	v1, err := s.Verifier(ctx, ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Verifier(ctx, ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("Session.Verifier must return the cached verifier")
	}
	if v1.Original() != m1 {
		t.Error("the cached verifier must check the cached instance")
	}
	holds, err := v1.Check(ctx, podc.MustParseFormula("forall i . AG (d[i] -> AF c[i])"))
	if err != nil || !holds {
		t.Errorf("liveness on M_4 = %v, %v", holds, err)
	}
}

// TestSessionVerifierChecksPerOrbit compares the session's verifiers with
// a plain verifier of the structure the session built: every verdict
// agrees, at the initial state and (unless the verifier checks a quotient)
// at every state.  Every Session instance is explored, so on the default
// route and under WithParallelBuild each topology's verifier carries the
// verified index action and answers the top-level quantifiers with fewer
// memoised satisfaction sets than the plain verifier.  Under WithMinimize
// (quotient states are not instance states) it carries none and memoises
// exactly as many sets.
func TestSessionVerifierChecksPerOrbit(t *testing.T) {
	ctx := context.Background()
	ringFormulas := []string{
		"forall i . AG (d[i] -> AF c[i])",
		"exists i . EX EX c[i]",
		"forall i . A[n[i] U t[i]]",
		"exists i . AG !c[i]",
		"forall i . EF (c[i] & one t)",
	}
	tokenFormulas := []string{
		"forall i . AG EF t[i]",
		"exists i . EX t[i]",
		"forall i . AG (t[i] -> EF (n[i] & !t[i]))",
		"exists i . AG !t[i]",
	}
	type routeCase struct {
		name     string
		opts     []podc.Option
		topo     podc.Topology
		n        int
		formulas []string
		orbit    bool
	}
	var cases []routeCase
	for _, topo := range podc.Topologies() {
		formulas, n := tokenFormulas, 6
		if topo.Name() == "ring" {
			formulas, n = ringFormulas, 4
		}
		cases = append(cases, routeCase{topo.Name() + "/default", nil, topo, n, formulas, true})
	}
	cases = append(cases,
		routeCase{"ring/parallel-build", []podc.Option{podc.WithParallelBuild(2)}, podc.RingTopology(), 4, ringFormulas, true},
		routeCase{"ring/minimize", []podc.Option{podc.WithMinimize()}, podc.RingTopology(), 4, ringFormulas, false},
		routeCase{"star/parallel-build", []podc.Option{podc.WithParallelBuild(2)}, podc.StarTopology(), 5, tokenFormulas, true},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := podc.NewSession(tc.opts...).Verifier(ctx, tc.topo, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			m := v.Original()
			plain, err := podc.NewVerifier(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, text := range tc.formulas {
				f := podc.MustParseFormula(text)
				want, err := plain.Check(ctx, f)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := v.Check(ctx, f); err != nil || got != want {
					t.Errorf("%s: session verifier %v (%v), plain %v", text, got, err, want)
				}
				if v.Minimized() {
					continue
				}
				for s := range m.NumStates() {
					want, err1 := plain.CheckAt(ctx, f, podc.State(s))
					got, err2 := v.CheckAt(ctx, f, podc.State(s))
					if err1 != nil || err2 != nil || got != want {
						t.Fatalf("%s at state %d: session verifier %v (%v), plain %v (%v)", text, s, got, err2, want, err1)
					}
				}
			}
			entries, _ := v.MemoStats()
			plainEntries, _ := plain.MemoStats()
			switch {
			case tc.orbit && entries >= plainEntries:
				t.Errorf("session verifier memoised %d sets, plain %d: the index action was not used", entries, plainEntries)
			case !tc.orbit && entries != plainEntries:
				t.Errorf("session verifier memoised %d sets, plain %d: this route must carry no index action", entries, plainEntries)
			}
		})
	}
}

// TestSessionCorrespondenceMatchesPerPairOracle: a default Session decides
// every token topology's cutoff correspondences by orbits — both instances
// carry an index action — and the answer equals family.DecideCorrespondence,
// which decides every index pair on sequentially built instances: the same
// verdict, the same maximal degree and byte-identical relations for every
// index pair.
func TestSessionCorrespondenceMatchesPerPairOracle(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession()
	for _, topo := range podc.Topologies() {
		if topo.Name() == "ring" {
			continue
		}
		ft, ok := family.ByName(topo.Name())
		if !ok {
			t.Fatalf("%s: not a built-in family topology", topo)
		}
		c := topo.CutoffSize()
		for n := c + 1; n <= 8; n++ {
			if topo.ValidSize(n) != nil {
				continue
			}
			left, right, err := podc.SessionIndexActions(ctx, s, topo, c, n)
			if err != nil {
				t.Fatalf("%s %d~%d: %v", topo, c, n, err)
			}
			if left == nil || right == nil {
				t.Fatalf("%s %d~%d: the session's instances carry no index action (left %v, right %v)", topo, c, n, left != nil, right != nil)
			}
			got, err := s.Correspondence(ctx, topo, c, n)
			if err != nil {
				t.Fatalf("%s %d~%d: %v", topo, c, n, err)
			}
			want, err := family.DecideCorrespondence(ctx, ft, c, n)
			if err != nil {
				t.Fatalf("%s %d~%d: %v", topo, c, n, err)
			}
			if got.Corresponds() != want.Corresponds() {
				t.Errorf("%s %d~%d: session says corresponds=%v, oracle %v", topo, c, n, got.Corresponds(), want.Corresponds())
			}
			wantDegree := 0
			for p, w := range want.Pairs {
				wantDegree = max(wantDegree, w.Relation.MaxDegree())
				g, ok := got.PairResult(podc.IndexPair{I: p.I, I2: p.I2})
				if !ok {
					t.Fatalf("%s %d~%d: session result lacks index pair %v", topo, c, n, p)
				}
				if !bytes.Equal(podc.PairCSR(g), w.Relation.AppendCSR(nil)) {
					t.Errorf("%s %d~%d: index pair %v: session relation differs from the oracle's", topo, c, n, p)
				}
			}
			if got.MaxDegree() != wantDegree {
				t.Errorf("%s %d~%d: session max degree %d, oracle %d", topo, c, n, got.MaxDegree(), wantDegree)
			}
		}
	}
}

// TestSessionVerifierMemoStatsConcurrent reads the memo gauge's source while
// checks run on the cached ring verifiers (under -race this pins that the
// reader needs no verifier lock), then checks the totals only grow.
func TestSessionVerifierMemoStatsConcurrent(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession()
	formulas := []string{
		"forall i . AG (d[i] -> AF c[i])",
		"forall i . EF c[i]",
		"exists i . AG !c[i]",
		"forall i . A[n[i] U t[i]]",
	}
	var wg sync.WaitGroup
	for _, r := range []int{3, 4} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, text := range formulas {
				v, err := s.Verifier(ctx, podc.RingTopology(), r)
				if err != nil {
					t.Errorf("Verifier(ring, %d): %v", r, err)
					return
				}
				if _, err := v.Check(ctx, podc.MustParseFormula(text)); err != nil {
					t.Errorf("Check(M_%d, %s): %v", r, text, err)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	lastEntries, lastBytes := 0, 0
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		entries, bytes := s.VerifierMemoStats()
		if entries < lastEntries || bytes < lastBytes {
			t.Fatalf("memo stats shrank: (%d, %d) -> (%d, %d)", lastEntries, lastBytes, entries, bytes)
		}
		lastEntries, lastBytes = entries, bytes
	}
	if lastEntries == 0 || lastBytes == 0 {
		t.Fatalf("memo stats after the checks = (%d, %d), want both positive", lastEntries, lastBytes)
	}
}

func TestSessionDeduplicatesConcurrentCorrespondences(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession(podc.WithWorkers(2))
	const clients = 8
	results := make([]*podc.IndexedCorrespondence, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			corr, err := s.Correspondence(ctx, podc.RingTopology(), 3, 6)
			if err != nil {
				t.Error(err)
				return
			}
			results[c] = corr
		}(c)
	}
	wg.Wait()
	for c := 1; c < clients; c++ {
		if results[c] != results[0] {
			t.Fatalf("client %d got a different object — computation was not shared", c)
		}
	}
	if !results[0].Corresponds() {
		t.Error("M_3 ~ M_6 must hold")
	}
}

func TestSessionWaiterSurvivesCreatorCancellation(t *testing.T) {
	s := podc.NewSession(podc.WithWorkers(2))
	creatorCtx, cancelCreator := context.WithCancel(context.Background())
	creatorDone := make(chan error, 1)
	go func() {
		_, err := s.Correspondence(creatorCtx, podc.RingTopology(), 3, 9)
		creatorDone <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the creator claim the flight
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.Correspondence(context.Background(), podc.RingTopology(), 3, 9)
		waiterDone <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancelCreator()
	<-creatorDone // cancelled or completed; either is fine
	// The healthy waiter must not inherit the creator's context error: it
	// retries and gets a real result.
	if err := <-waiterDone; err != nil {
		t.Fatalf("healthy waiter failed after creator cancellation: %v", err)
	}
}

func TestSessionInstanceTooLargeIsTyped(t *testing.T) {
	if _, err := podc.NewSession().Instance(context.Background(), podc.RingTopology(), 25); !errors.Is(err, podc.ErrTooLarge) {
		t.Errorf("Session.Instance(RingTopology(), 25) err = %v, want podc.ErrTooLarge", err)
	}
}

func TestSessionFailedComputationIsRetried(t *testing.T) {
	s := podc.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Correspondence(ctx, podc.RingTopology(), 3, 6); err == nil {
		t.Fatal("cancelled computation should fail")
	}
	// The failure must not be cached.
	corr, err := s.Correspondence(context.Background(), podc.RingTopology(), 3, 6)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if !corr.Corresponds() {
		t.Error("M_3 ~ M_6 must hold on retry")
	}
}

func TestSessionNamedStructures(t *testing.T) {
	s := podc.NewSession()
	m, err := podc.ParseStructure("structure tiny\nstate 0 initial : p\ntrans 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddStructure("tiny", m); err != nil {
		t.Fatal(err)
	}
	got, ok := s.StructureByName("tiny")
	if !ok || got != m {
		t.Error("registered structure not found")
	}
	if err := s.AddStructure("", m); err == nil {
		t.Error("empty name must be rejected")
	}
}

func TestSessionSweepStreamsAndStopsEarly(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession(podc.WithWorkers(2))
	// Full run: all sizes arrive.
	seen := map[int]bool{}
	for row := range s.SweepTopology(ctx, podc.RingTopology(), []int{4, 5, 6}) {
		if row.Err != nil {
			t.Fatalf("r=%d: %v", row.R, row.Err)
		}
		if !row.Corresponds {
			t.Errorf("r=%d should correspond", row.R)
		}
		seen[row.R] = true
	}
	if len(seen) != 3 {
		t.Fatalf("expected 3 rows, got %v", seen)
	}

	// Early break: the iterator must stop and the pool wind down.
	baseline := runtime.NumGoroutine()
	got := 0
	for range s.SweepTopology(ctx, podc.RingTopology(), []int{4, 5, 6, 7, 8, 9}) {
		got++
		break
	}
	if got != 1 {
		t.Fatalf("broke after one row but saw %d", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("sweep pool leaked goroutines: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A summary table from collected rows.
	var rows []podc.SweepResult
	for row := range s.SweepTopology(ctx, podc.RingTopology(), []int{4, 5}) {
		rows = append(rows, row)
	}
	tbl := podc.SweepResultsTable(rows)
	if len(tbl.Rows) != 2 {
		t.Errorf("summary table has %d rows, want 2", len(tbl.Rows))
	}
}

func TestSessionExperimentCachedAndStreamed(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession(podc.WithWorkers(2))
	t1, err := s.Experiment(ctx, "E1")
	if err != nil {
		t.Fatal(err)
	}
	if t1.ID != "E1" || len(t1.Rows) == 0 {
		t.Fatalf("bad table: %+v", t1)
	}
	t2, err := s.Experiment(ctx, "E1")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("experiment table must be cached")
	}
	if _, err := s.Experiment(ctx, "E99"); err == nil {
		t.Error("unknown experiment must fail")
	}
	// Compound identifier halves resolve.
	if _, err := s.Experiment(ctx, "E4"); err != nil {
		t.Errorf("E4 should resolve to the E4/E5 job: %v", err)
	}
	if ids := s.CachedExperimentIDs(); len(ids) < 2 {
		t.Errorf("expected cached ids, got %v", ids)
	}

	// Streaming: unknown ids yield error results, known ids yield tables.
	var okIDs, errIDs int
	for o := range s.Experiments(ctx, []string{"E1", "bogus", "E3"}) {
		if o.Err != nil {
			errIDs++
		} else {
			okIDs++
		}
	}
	if okIDs != 2 || errIDs != 1 {
		t.Errorf("streamed %d ok / %d err, want 2 / 1", okIDs, errIDs)
	}
	if got := len(podc.ExperimentIDs()); got != 10 {
		t.Errorf("standard battery has %d entries, want 10 (E1..E10)", got)
	}
}

func TestSessionTransferCertificateCached(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession(podc.WithWorkers(2))
	c1, err := s.TransferCertificate(ctx, podc.RingTopology(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.TransferCertificate(ctx, podc.RingTopology(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("certificate must be cached")
	}
	if c1.SmallSize() != 3 || c1.LargeSize() != 4 {
		t.Errorf("certificate sizes (%d, %d)", c1.SmallSize(), c1.LargeSize())
	}
}

// orbitClasses returns the number of orbit classes of in under the index
// actions (nil: every index is its own orbit), which is the number of
// refinements a cold decision of in runs: pair (i, j) belongs to the class
// of its indices' orbit representatives.
func orbitClasses(t *testing.T, in []podc.IndexPair, left, right *kripke.IndexAction) int {
	t.Helper()
	rep := func(a *kripke.IndexAction, i int) int {
		if a == nil {
			return i
		}
		k, ok := slices.BinarySearch(a.Structure().IndexValues(), i)
		if !ok {
			t.Fatalf("index %d is not an index of %s", i, a.Structure().Name())
		}
		return a.Representatives()[a.Orbit(k)]
	}
	classes := make(map[[2]int]bool)
	for _, p := range in {
		classes[[2]int{rep(left, p.I), rep(right, p.I2)}] = true
	}
	return len(classes)
}

// TestSessionCertificateMatchesBuildTransferCertificate pins the session's
// certificate, packaged from its own correspondence decision, to the one
// BuildTransferCertificate decides from scratch: byte-identical JSON for
// every topology's cutoff → n pair, n in 4..8, with one refinement per
// orbit class of index pairs (the correspondence's) and none for the
// certificate.
func TestSessionCertificateMatchesBuildTransferCertificate(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession()
	for _, topo := range podc.Topologies() {
		c := topo.CutoffSize()
		for n := max(c, 4); n <= 8; n++ {
			if topo.ValidSize(n) != nil {
				continue
			}
			want, err := podc.BuildTransferCertificate(ctx, topo.Family(), c, n)
			if err != nil {
				t.Fatalf("%s %d~%d: %v", topo, c, n, err)
			}
			left, right, err := podc.SessionIndexActions(ctx, s, topo, c, n)
			if err != nil {
				t.Fatalf("%s %d~%d: %v", topo, c, n, err)
			}
			classes := orbitClasses(t, topo.IndexRelation(c, n), left, right)
			before := bisim.ComputeCalls()
			got, err := s.TransferCertificate(ctx, topo, c, n)
			if err != nil {
				t.Fatalf("%s %d~%d: %v", topo, c, n, err)
			}
			if calls := bisim.ComputeCalls() - before; calls != int64(classes) {
				t.Errorf("%s %d~%d: %d refinements for %d orbit classes of index pairs; the certificate must reuse the correspondence's", topo, c, n, calls, classes)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("%s %d~%d: session certificate differs from BuildTransferCertificate's", topo, c, n)
			}
		}
	}
}

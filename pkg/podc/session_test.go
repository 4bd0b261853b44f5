package podc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bisim"
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

// TestSessionRingVerifierChecksPerOrbit compares the verifier of every
// session construction route with a plain verifier of the structure that
// route built: every verdict agrees, at the initial state and (unless the
// verifier checks a quotient) at every state.  Routes that explored the
// instance (the ring by default; any topology under WithParallelBuild)
// carry its verified index action and answer the top-level quantifiers
// with fewer memoised satisfaction sets than the plain verifier.
// WithMinimize (quotient states are not instance states), WithSymmetry
// (the unfolded build keeps no space) and a star built sequentially carry
// no action and memoise exactly as many sets.
func TestSessionRingVerifierChecksPerOrbit(t *testing.T) {
	ctx := context.Background()
	ringFormulas := []string{
		"forall i . AG (d[i] -> AF c[i])",
		"exists i . EX EX c[i]",
		"forall i . A[n[i] U t[i]]",
		"exists i . AG !c[i]",
		"forall i . EF (c[i] & one t)",
	}
	starFormulas := []string{
		"forall i . AG EF t[i]",
		"exists i . EX t[i]",
		"forall i . AG (t[i] -> EF (n[i] & !t[i]))",
		"exists i . AG !t[i]",
	}
	for _, tc := range []struct {
		name     string
		opts     []podc.Option
		topo     podc.Topology
		n        int
		formulas []string
		orbit    bool
	}{
		{"ring/default", nil, podc.RingTopology(), 4, ringFormulas, true},
		{"ring/parallel-build", []podc.Option{podc.WithParallelBuild(2)}, podc.RingTopology(), 4, ringFormulas, true},
		{"ring/minimize", []podc.Option{podc.WithMinimize()}, podc.RingTopology(), 4, ringFormulas, false},
		{"ring/symmetry", []podc.Option{podc.WithSymmetry()}, podc.RingTopology(), 4, ringFormulas, false},
		{"star/default", nil, podc.StarTopology(), 5, starFormulas, false},
		{"star/parallel-build", []podc.Option{podc.WithParallelBuild(2)}, podc.StarTopology(), 5, starFormulas, true},
	} {
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

func TestBuildRingTooLargeIsTyped(t *testing.T) {
	if _, err := podc.BuildRing(25); !errors.Is(err, podc.ErrTooLarge) {
		t.Errorf("BuildRing(25) err = %v, want podc.ErrTooLarge", err)
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

// TestSessionCertificateMatchesBuildTransferCertificate pins the session's
// certificate, packaged from its own correspondence decision, to the one
// BuildTransferCertificate decides from scratch: byte-identical JSON for
// every topology's cutoff → n pair, n in 4..8, with one refinement per
// index pair (the correspondence's) and none for the certificate.
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
			before := bisim.ComputeCalls()
			got, err := s.TransferCertificate(ctx, topo, c, n)
			if err != nil {
				t.Fatalf("%s %d~%d: %v", topo, c, n, err)
			}
			if calls, pairs := bisim.ComputeCalls()-before, len(topo.IndexRelation(c, n)); calls != int64(pairs) {
				t.Errorf("%s %d~%d: %d refinements for %d index pairs; the certificate must reuse the correspondence's", topo, c, n, calls, pairs)
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

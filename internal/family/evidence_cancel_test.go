package family

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/bisim"
)

// Cancellation conventions for the evidence-threaded deciders, matching
// the goroutine-leak baselines of the bisim and experiments cancel tests.

// settleGoroutines waits (bounded) for the goroutine count to drop back to
// the baseline.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		now := runtime.NumGoroutine()
		if now <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// decideWithEvidence builds the topology's instances of the two sizes,
// decides their correspondence with DecideBuilt and, when they do not
// correspond, extracts and replays the evidence with ExplainBuilt — the
// chain the session layer runs over its cached instances.
func decideWithEvidence(ctx context.Context, t Topology, small, large int) (*bisim.IndexedResult, *Evidence, error) {
	sm, err := t.Build(small)
	if err != nil {
		return nil, nil, err
	}
	lg, err := t.Build(large)
	if err != nil {
		return nil, nil, err
	}
	res, err := DecideBuilt(ctx, t, sm, small, lg, large, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	ev, err := ExplainBuilt(ctx, t, sm, small, lg, large, res)
	if err != nil {
		return nil, nil, err
	}
	return res, ev, nil
}

// TestDecideWithEvidenceAlreadyCancelled: a cancelled context stops the
// evidence-threaded decider before it leaks work.
func TestDecideWithEvidenceAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := decideWithEvidence(ctx, Ring(), 2, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestDecideWithEvidenceCancelledMidway: cancelling while the decider (or
// the extractor it chains into) runs returns the context's error promptly
// and leaves no worker goroutines behind.
func TestDecideWithEvidenceCancelledMidway(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Ring 2 vs 9 fails to correspond, so a completed run would reach
		// the evidence extraction and replay stages; cancellation may land
		// in any stage.
		_, _, err := decideWithEvidence(ctx, Ring(), 2, 9)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled (or completion)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("decideWithEvidence did not return promptly after cancellation")
	}
	settleGoroutines(t, baseline)
}

// TestExplainBuiltNilOnSuccess: the extractor never runs for a holding
// correspondence, so it is free even with evidence requested everywhere.
func TestExplainBuiltNilOnSuccess(t *testing.T) {
	ctx := context.Background()
	res, ev, err := decideWithEvidence(ctx, Star(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corresponds() || ev != nil {
		t.Fatalf("star 3 vs 4 should correspond evidence-free, got corresponds=%v evidence=%s", res.Corresponds(), ev)
	}
}

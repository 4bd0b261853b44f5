package mc

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/logic"
)

// Cancellation battery for the checker, mirroring explore/cancel_test.go and
// bisim/cancel_test.go: an already-cancelled context stops evaluation before
// any work, a cancellation landing mid-query surfaces as the context's error
// without leaking pool goroutines (parallelChunks always joins its workers
// before returning), and an expired deadline is reported as such.  Every
// case runs with a worker budget so the chunked frontier gather's pool is
// the thing being cancelled.

// settleGoroutines waits (bounded) for the goroutine count to drop back to
// the baseline, tolerating runtime bookkeeping goroutines.
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

// cancelFixture returns a structure big enough that a fixpoint query has a
// cancellation window, and a formula whose evaluation exercises EU and EG.
func cancelFixture(t testing.TB) (*Checker, logic.Formula) {
	t.Helper()
	r := rand.New(rand.NewSource(424242))
	m := randomStructure(r, 20000)
	return New(m).SetWorkers(4), logic.MustParse("E ((p | q) U (E (G (q | r))))")
}

// TestCheckerAlreadyCancelled: a context that is already cancelled stops the
// evaluation before it does any work.
func TestCheckerAlreadyCancelled(t *testing.T) {
	c, f := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Holds(ctx, f); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestCheckerCancelledMidway: cancelling while the query runs makes Holds
// return promptly with ctx.Err() and leaves no pool workers behind.
func TestCheckerCancelledMidway(t *testing.T) {
	c, f := cancelFixture(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Holds(ctx, f)
		done <- err
	}()
	time.Sleep(500 * time.Microsecond)
	cancel()
	select {
	case err := <-done:
		// nil is possible if the query beat the cancellation; any non-nil
		// error must be the context's.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled (or completion)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Holds did not return promptly after cancellation")
	}
	settleGoroutines(t, baseline)
}

// TestCheckerDeadline: an expired deadline surfaces as DeadlineExceeded.
func TestCheckerDeadline(t *testing.T) {
	c, f := cancelFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	if _, err := c.Holds(ctx, f); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestTableauCancelledMidway: cancellation also lands inside the CTL* tableau
// product (the conjunction with true blocks the CTL fast path).
func TestTableauCancelledMidway(t *testing.T) {
	r := rand.New(rand.NewSource(434343))
	c := New(randomStructure(r, 4000)).SetWorkers(4)
	f := logic.MustParse("E (((p | q) U (q & r)) & true)")
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Holds(ctx, f)
		done <- err
	}()
	time.Sleep(500 * time.Microsecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled (or completion)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tableau query did not return promptly after cancellation")
	}
	settleGoroutines(t, baseline)
}

// TestTableauCancelledInEnumeration: at 20 temporal operators each leaf
// signature enumerates 2^20 candidate assignments, so the enumeration polls
// the context itself and a cancellation landing there surfaces promptly.
func TestTableauCancelledInEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(444444))
	c := New(randomStructure(r, 64)).SetWorkers(4)
	f := logic.ExistsPath(logic.Conj(nestEventually(19, logic.Prop("q")), logic.Next(logic.Prop("p"))))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Holds(ctx, f)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tableau enumeration did not return promptly after cancellation")
	}
}

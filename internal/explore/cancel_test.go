package explore_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/ring"
)

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

// slowDef wraps the ring definition with a per-call delay so a
// cancellation has a window to land mid-level.
func slowDef(r int, delay time.Duration) explore.Def {
	def := ring.PackedDef(r)
	inner := def.Succ
	def.Succ = func(dst []uint64, code uint64) ([]uint64, error) {
		time.Sleep(delay)
		return inner(dst, code)
	}
	return def
}

// TestExploreAlreadyCancelled: a context that is already cancelled stops
// the exploration before it does any work.
func TestExploreAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := explore.Explore(ctx, ring.PackedDef(8), explore.Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestExploreCancelledMidway: cancelling while the worker pool runs makes
// Explore return promptly with ctx.Err() and leaves no workers behind.
func TestExploreCancelledMidway(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := explore.Explore(ctx, slowDef(10, 50*time.Microsecond), explore.Options{Workers: 8})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// nil is possible if the exploration beat the cancellation; any
		// non-nil error must be the context's.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled (or completion)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Explore did not return promptly after cancellation")
	}
	settleGoroutines(t, baseline)
}

// TestExploreDeadline: an expired deadline surfaces as DeadlineExceeded.
func TestExploreDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := explore.Explore(ctx, ring.PackedDef(8), explore.Options{Workers: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBuildCancelled: cancellation also lands in the labelling pass, which
// runs after the exploration proper.
func TestBuildCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := explore.Build(ctx, slowDef(11, 20*time.Microsecond), explore.Options{Workers: 8})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled (or completion)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Build did not return promptly after cancellation")
	}
	settleGoroutines(t, baseline)
}

// TestExploreCancelPerState: one worker splits a level into four chunks,
// so a level of slow states holds a chunk for a long time; cancellation is
// polled between states, and lands within one state's cost.
func TestExploreCancelPerState(t *testing.T) {
	const width, cost = 400, 5 * time.Millisecond
	def := explore.Def{
		Name: "fan",
		Succ: func(dst []uint64, code uint64) ([]uint64, error) {
			if code == 0 {
				for c := uint64(1); c <= width; c++ {
					dst = append(dst, c)
				}
				return dst, nil
			}
			time.Sleep(cost)
			return dst, nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := explore.Explore(ctx, def, explore.Options{Workers: 1})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(cancelled); elapsed > 100*time.Millisecond {
			t.Errorf("Explore returned %v after cancel, want within 100ms", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Explore did not return after cancellation")
	}
}

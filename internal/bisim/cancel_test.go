package bisim_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bisim"
	"repro/internal/kripke"
)

// bigStructure builds a structure large enough that Compute takes visible
// time: layers of label-equal states with dense forward edges, plus enough
// label variety that refinement has real work to do.
func bigStructure(t testing.TB, layers, width int) *kripke.Structure {
	t.Helper()
	b := kripke.NewBuilder(fmt.Sprintf("big-%dx%d", layers, width))
	ids := make([][]kripke.State, layers)
	for l := 0; l < layers; l++ {
		ids[l] = make([]kripke.State, width)
		for w := 0; w < width; w++ {
			// Labels repeat across layers so many states are label-equal
			// candidates.
			ids[l][w] = b.AddState(kripke.P(fmt.Sprintf("p%d", w%3)))
		}
	}
	for l := 0; l < layers; l++ {
		next := (l + 1) % layers
		for w := 0; w < width; w++ {
			for k := 0; k < 4; k++ {
				if err := b.AddTransition(ids[l][w], ids[next][(w+k)%width]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := b.SetInitial(ids[0][0]); err != nil {
		t.Fatal(err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

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

// TestComputeAlreadyCancelled: a context that is already cancelled stops
// Compute before it does any work, for both engines.
func TestComputeAlreadyCancelled(t *testing.T) {
	m := bigStructure(t, 6, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bisim.Compute(ctx, m, m, bisim.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("refinement engine: err = %v, want context.Canceled", err)
	}
	if _, err := bisim.ComputeFixpoint(ctx, m, m, bisim.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("fixpoint engine: err = %v, want context.Canceled", err)
	}
}

// TestComputeCancelledMidway: cancelling while Compute runs makes it return
// promptly with ctx.Err() and leaves no goroutines behind.
func TestComputeCancelledMidway(t *testing.T) {
	m := bigStructure(t, 10, 24)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := bisim.Compute(ctx, m, m, bisim.Options{})
		done <- err
	}()
	// Let it get into the engine, then cancel.
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// nil is possible if the computation beat the cancellation; any
		// non-nil error must be the context's.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled (or completion)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Compute did not return promptly after cancellation")
	}
	settleGoroutines(t, baseline)
}

// TestIndexedComputeCancelled: cancelling mid-IndexedCompute stops the
// worker pool promptly and leaks no worker goroutines.
func TestIndexedComputeCancelled(t *testing.T) {
	m := bigStructure(t, 8, 16)
	// Give every state an indexed proposition so the index relation is
	// non-trivial; reuse the same structure on both sides.
	in := []bisim.IndexPair{}
	for i := 0; i < 8; i++ {
		in = append(in, bisim.IndexPair{I: 0, I2: 0})
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := bisim.IndexedCompute(ctx, m, m, in, bisim.Options{Workers: 4})
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
		t.Fatal("IndexedCompute did not return promptly after cancellation")
	}
	settleGoroutines(t, baseline)
}

// TestComputeDeadline: an expired deadline surfaces as DeadlineExceeded.
func TestComputeDeadline(t *testing.T) {
	m := bigStructure(t, 10, 24)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	if _, err := bisim.Compute(ctx, m, m, bisim.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestParallelIndexedComputeCancelled: a pool asked for more workers than
// there are cores (Workers 8, capped at GOMAXPROCS) still stops promptly
// and joins every pool goroutine when cancelled.
func TestParallelIndexedComputeCancelled(t *testing.T) {
	m := bigStructure(t, 8, 16)
	in := []bisim.IndexPair{}
	for i := 0; i < 8; i++ {
		in = append(in, bisim.IndexPair{I: 0, I2: 0})
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := bisim.IndexedCompute(ctx, m, m, in, bisim.Options{Workers: 8})
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
		t.Fatal("IndexedCompute did not return promptly after cancellation")
	}
	settleGoroutines(t, baseline)
}

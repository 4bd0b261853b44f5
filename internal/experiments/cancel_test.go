package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/family"
)

func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCollectCancelled: cancelling a Collect run surfaces ctx.Err() and the
// worker pool winds down completely.
func TestCollectCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{ID: "slow", Run: func(ctx context.Context) (*Table, error) {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return &Table{}, nil
			}
		}})
	}
	done := make(chan error, 1)
	go func() {
		_, err := Runner{Workers: 4}.Collect(ctx, jobs)
		done <- err
	}()
	<-started // at least one job is running
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Collect err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Collect did not return promptly after cancellation")
	}
	settleGoroutines(t, baseline)
}

// TestSweepCancelledMidway: a context cancelled mid-sweep closes the stream
// promptly — the consumer's range loop terminates — and the pool's worker
// goroutines all exit.
func TestSweepCancelledMidway(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// Plenty of sizes so the sweep is busy when the cancel lands.
	sizes := []int{4, 5, 6, 7, 8, 9, 10, 11}
	ch := Runner{Workers: 2}.TopologySweep(ctx, family.Ring(), sizes)
	got := 0
	for row := range ch {
		got++
		_ = row
		if got == 1 {
			cancel()
		}
	}
	if got >= len(sizes) {
		t.Logf("sweep finished all %d sizes before cancellation took effect", got)
	}
	settleGoroutines(t, baseline)
	cancel()
}

// TestStreamConsumerStops: even if the consumer abandons the channel after
// cancelling, the workers exit (sends select on ctx.Done).
func TestStreamConsumerStops(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, Job{ID: "quick", Run: func(ctx context.Context) (*Table, error) {
			return &Table{}, nil
		}})
	}
	ch := Runner{Workers: 3}.Stream(ctx, jobs)
	<-ch // take one outcome, then walk away
	cancel()
	settleGoroutines(t, baseline)
}

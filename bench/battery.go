package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/pkg/podc"
)

// The battery workload replays loadgen.Battery — model checks, four
// topologies' correspondences, a transfer certificate and the E1 table —
// round-robin after one warm-up pass, so every answer is a session-cache
// hit.  With the engines idle it isolates handler, JSON and session
// overhead.  Each response must canonicalize byte-identical to the answer
// an in-process session computed (loadgen.Canonicalize).

func runBattery(ctx context.Context, cfg Config, work string, tr *tracer) (*outcome, error) {
	bin, err := serverBinary(ctx, cfg)
	if err != nil {
		return nil, err
	}
	client := newClient(clients())
	defer client.CloseIdleConnections()
	o := &outcome{tailPct: 99}

	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var battery []loadgen.Request
	// Set-up: compute the expected answers in-process, start podcserve and
	// send the battery once so the timed phase sees only cache hits.
	for range cfg.SetupReps {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping podcserve: %w", err)
			}
			srv = nil
		}
		start := time.Now()
		if battery, err = loadgen.Battery(ctx, podc.NewSession()); err != nil {
			return nil, err
		}
		if srv, err = startServer(ctx, bin, client); err != nil {
			return nil, err
		}
		for _, item := range battery {
			resp := send(ctx, client, srv.base, batteryRequest(item))
			if !batteryAnswer(item, resp) {
				return nil, fmt.Errorf("warm-up %s: status %d %v: %.300s", item.Name, resp.status, resp.err, resp.body)
			}
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	offset := int(cfg.Seed % uint64(len(battery)))
	item := func(i int) int { return (offset + i) % len(battery) }
	// Responses differ only in elapsed_ms, so most repeat byte for byte: a
	// body identical to one already verified for the same item needs no
	// second canonicalization, which keeps the clients' verification far
	// cheaper than the server's answer.
	var mu sync.Mutex
	verified := make([]map[string]bool, len(battery))
	for k := range verified {
		verified[k] = make(map[string]bool)
	}
	ph, err := closedLoop(ctx, cfg, o, tr, srv, client, 0, time.Now().Add(cfg.budget()),
		func(i int) request { return batteryRequest(battery[item(i)]) },
		func(i int, r response) bool {
			k := item(i)
			mu.Lock()
			seen := verified[k][string(r.body)]
			mu.Unlock()
			if seen {
				return true
			}
			if !batteryAnswer(battery[k], r) {
				return false
			}
			mu.Lock()
			verified[k][string(r.body)] = true
			mu.Unlock()
			return true
		})
	if err != nil {
		return nil, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, fmt.Errorf("stopping podcserve: %w", err)
	}
	o.note("battery_size", len(battery))
	if cfg.Trace {
		o.spans = tr.snapshot()
		o.layer = httpLayerMetrics(ph, "")
	}
	return o, nil
}

func batteryRequest(item loadgen.Request) request {
	return request{method: item.Method, path: item.Path, body: item.Body}
}

// batteryAnswer applies loadgen's differential check: status 200 and a
// body that canonicalizes byte-identical to the library's answer.
func batteryAnswer(item loadgen.Request, r response) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	got, err := loadgen.Canonicalize(r.body)
	return err == nil && bytes.Equal(got, item.Expect)
}

package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The HTTP workloads drive one podcserve child in a closed loop: each of
// clients() clients sends its next request only after the previous answer,
// over its own keep-alive connection.  podcserve's callers wait for every
// verdict, so a closed loop is the load they generate; with two clients the
// service's admission control (64 slots) never queues.

// clients is the closed-loop client count: two, or fewer on fewer CPUs.
func clients() int { return min(2, runtime.NumCPU()) }

type request struct {
	method, path string
	body         []byte
}

type response struct {
	status int
	body   []byte
	rtt    time.Duration
	err    error
}

func newClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

func send(ctx context.Context, client *http.Client, base string, r request) response {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return response{err: err}
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return response{err: err, rtt: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return response{status: resp.StatusCode, body: b, rtt: time.Since(start), err: err}
}

// httpPhase is what the client side of a timed phase saw.
type httpPhase struct {
	sent int
	// deltas holds, per /metrics series, the change over the phase.
	deltas promSample
	// For the traced requests: summed client-side verification and
	// round-trip time.
	verifyNS, rttNS int64
	traced          int
	// responseBytes sums every response body.
	responseBytes int64
}

// closedLoop runs the timed phase: requests 0, 1, ... against srv in a
// closed loop until limit requests were sent (0: no limit) or, when until
// is set, that time has passed; Config.MaxOps caps the request index.
// Request i is gen(i); verify checks its answer on the client goroutine and
// reports false for a wrong one.  The requests, the server's CPU time, heap
// allocation and peak RSS, and the wall time go into o, and a closed loop
// of at most two clients that podcserve shed is a failure.
func closedLoop(ctx context.Context, cfg Config, o *outcome, tr *tracer, srv *server, client *http.Client,
	limit int, until time.Time, gen func(i int) request, verify func(i int, r response) bool) (*httpPhase, error) {
	ph := &httpPhase{}
	before, err := srv.scrape(ctx, client)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := procUsage(srv.pid())
	if err != nil {
		return nil, err
	}
	allocBefore, err := srv.totalAllocMB(ctx, client)
	if err != nil {
		return nil, err
	}

	var (
		mu   sync.Mutex
		next atomic.Int64
		done atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for range clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if (limit > 0 && i >= limit) || (cfg.MaxOps > 0 && i >= cfg.MaxOps) ||
					(i > 0 && !until.IsZero() && time.Now().After(until)) || ctx.Err() != nil {
					return
				}
				traced := cfg.traced(i)
				var t *tracer // nil for untraced requests: their spans are no-ops
				if traced {
					t = tr
				}
				root := t.start(layerBench, "request", 0, int64(i))
				sp := t.start("http", "http.Client.Do", root.id(), int64(i))
				resp := send(ctx, client, srv.base, gen(i))
				sp.end()
				v := t.start("client", "verify", root.id(), int64(i))
				verifyStart := time.Now()
				ok := resp.err == nil && resp.status == http.StatusOK && verify(i, resp)
				verifyNS := int64(time.Since(verifyStart))
				v.end()
				root.end()
				done.Add(1)

				mu.Lock()
				o.attempted++
				if !ok {
					switch {
					case resp.err != nil:
						o.fail("request %d: %v", i, resp.err)
					case resp.status != http.StatusOK:
						o.fail("request %d: status %d: %.200s", i, resp.status, resp.body)
					default:
						o.fail("request %d: wrong answer: %.300s", i, resp.body)
					}
				}
				ph.responseBytes += int64(len(resp.body))
				if traced {
					o.tracedOps = append(o.tracedOps, ms(resp.rtt))
					ph.traced++
					ph.rttNS += int64(resp.rtt)
					ph.verifyNS += verifyNS
				} else {
					o.ops = append(o.ops, ms(resp.rtt))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	o.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ph.sent = int(done.Load())
	o.units = ph.sent

	usageAfter, err := procUsage(srv.pid())
	if err != nil {
		return nil, err
	}
	o.cpu = usageAfter.cpu - cpuBefore.cpu
	o.peakRSS = usageAfter.peakRSS
	allocAfter, err := srv.totalAllocMB(ctx, client)
	if err != nil {
		return nil, err
	}
	o.allocPerOp = (allocAfter - allocBefore) / float64(max(ph.sent, 1))
	after, err := srv.scrape(ctx, client)
	if err != nil {
		return nil, err
	}
	ph.deltas = make(promSample, len(after))
	for series, v := range after {
		ph.deltas[series] = v - before[series]
	}
	if shed := ph.deltas.sum("podcserve_shed_total", ""); shed != 0 {
		o.fail("podcserve shed %v requests; a closed loop of %d clients must never be shed", shed, clients())
	}
	return ph, nil
}

// httpLayerMetrics derives the per-layer metrics a closed-loop phase
// measures through the client and the server's /metrics; endpoint selects
// the server latency series ("" for every endpoint).
func httpLayerMetrics(ph *httpPhase, endpoint string) map[string]float64 {
	sent := float64(ph.sent)
	traced := float64(max(ph.traced, 1))
	label := ""
	if endpoint != "" {
		label = fmt.Sprintf("endpoint=%q", endpoint)
	}
	d := ph.deltas.sum
	// /metrics is not instrumented and set-up requests precede the phase's
	// first scrape, so the endpoint's histogram deltas cover exactly the
	// timed requests.
	serverMS := 0.0
	if n := d("podcserve_request_seconds_count", label); n > 0 {
		serverMS = 1000 * d("podcserve_request_seconds_sum", label) / n
	}
	rttMS := float64(ph.rttNS) / 1e6 / traced
	out := map[string]float64{
		"server.request_ms":    serverMS,
		"http.overhead_ms":     rttMS - serverMS,
		"json.response_bytes":  float64(ph.responseBytes) / sent,
		"server.shed":          d("podcserve_shed_total", ""),
		"client.verify_ms":     float64(ph.verifyNS) / 1e6 / traced,
		"bisim.refinements":    d("podc_engine_refinements_total", "") / sent,
		"bisim.refine_batches": d("podc_engine_refine_batches_total", "") / sent,
		"store.hits":           d("podc_store_hits_total", "") / sent,
		"store.misses":         d("podc_store_misses_total", "") / sent,
		"store.invalid":        d("podc_store_invalid_total", "") / sent,
		"store.writes":         d("podc_store_writes_total", "") / sent,
	}
	hits := d("podc_session_cache_hits_total", "")
	if n := hits + d("podc_session_cache_misses_total", "") + d("podc_session_cache_joins_total", ""); n > 0 {
		out["session.hit_ratio"] = hits / n
	}
	return out
}

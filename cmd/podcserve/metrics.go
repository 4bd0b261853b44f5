package main

import (
	"repro/internal/bisim"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/pkg/podc"
)

// serverMetrics is the service's metrics surface: one obs.Registry exposed
// at GET /metrics, instrumented at every layer the request passes through —
// the HTTP handler (per-endpoint traffic, latency, in-flight, status
// classes, load shedding), the shared Session (cache hits/misses and
// in-flight dedup joins), the persistent verdict store (hits/misses/
// invalid/writes, replacing the one-shot /v1/store counter dump as the way
// to *watch* the store), and the refinement engines (process-wide compute
// calls, parallel splitter batches).
//
// Handler-side instruments are written on the request path; everything
// below the handler joins as a CounterFunc/GaugeFunc sampled at scrape
// time from counters those layers already keep, so no engine imports the
// metrics package.
type serverMetrics struct {
	registry *obs.Registry

	// requests counts finished requests by endpoint and status class
	// ("2xx".."5xx"); latency buckets their wall-clock seconds per endpoint;
	// inflight tracks requests currently inside each endpoint's handler.
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	inflight *obs.GaugeVec

	// shed counts requests rejected 429 by admission control; sweepRows
	// counts SSE sweep rows streamed to clients.
	shed      *obs.Counter
	sweepRows *obs.Counter
}

// newServerMetrics builds the registry over the given session.  The
// admission queue depth is sampled from the server after the handler is
// wired (see newHandler), so the gauge takes a closure.
func newServerMetrics(session *podc.Session, queueDepth, slotsBusy func() int64) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		registry: reg,
		requests: reg.CounterVec("podcserve_requests_total",
			"Finished HTTP requests by endpoint and status class.", "endpoint", "code"),
		latency: reg.HistogramVec("podcserve_request_seconds",
			"Request wall-clock latency by endpoint.", obs.DefBuckets, "endpoint"),
		inflight: reg.GaugeVec("podcserve_inflight_requests",
			"Requests currently being handled, by endpoint.", "endpoint"),
		shed: reg.Counter("podcserve_shed_total",
			"Requests rejected with 429 by admission control (semaphore full and queue full or wait expired)."),
		sweepRows: reg.Counter("podcserve_sweep_rows_total",
			"Sweep rows streamed over /v1/sweep server-sent events."),
	}
	reg.GaugeFunc("podcserve_admission_queue_depth",
		"Requests waiting for an admission slot.", func() float64 { return float64(queueDepth()) })
	reg.GaugeFunc("podcserve_admission_slots_busy",
		"Admission slots currently held by running requests.", func() float64 { return float64(slotsBusy()) })

	reg.CounterFunc("podc_session_cache_hits_total",
		"Session cache lookups answered by a completed cached computation.",
		func() int64 { return session.CacheStats().Hits })
	reg.CounterFunc("podc_session_cache_misses_total",
		"Session cache lookups that started a fresh computation.",
		func() int64 { return session.CacheStats().Misses })
	reg.CounterFunc("podc_session_cache_joins_total",
		"Session cache lookups deduplicated onto an identical in-flight computation.",
		func() int64 { return session.CacheStats().Joins })

	reg.GaugeFunc("podc_verifier_memo_bytes",
		"Bytes of memoised satisfaction sets (set words plus keys) across the session's cached ring verifiers.",
		func() float64 { _, b := session.VerifierMemoStats(); return float64(b) })

	reg.GaugeFunc("podc_store_enabled",
		"1 when the persistent verdict store is configured and usable, 0 otherwise.",
		func() float64 {
			if _, ok := session.StoreStats(); ok {
				return 1
			}
			return 0
		})
	storeCounter := func(name, help string, f func(store.Stats) int64) {
		reg.CounterFunc(name, help, func() int64 {
			st, _ := session.StoreStats()
			return f(st)
		})
	}
	storeCounter("podc_store_hits_total",
		"Verdict store reads that returned a valid entry.",
		func(st store.Stats) int64 { return st.Hits })
	storeCounter("podc_store_misses_total",
		"Verdict store reads that found no entry.",
		func(st store.Stats) int64 { return st.Misses })
	storeCounter("podc_store_invalid_total",
		"Verdict store entries rejected by an integrity check and recomputed.",
		func(st store.Stats) int64 { return st.Invalid })
	storeCounter("podc_store_writes_total",
		"Verdict store entries written.",
		func(st store.Stats) int64 { return st.Writes })

	reg.CounterFunc("podc_engine_refinements_total",
		"Process-wide partition-refinement computations (store replays never reach the engine).",
		bisim.ComputeCalls)
	reg.CounterFunc("podc_engine_refine_batches_total",
		"Always 0: the batched parallel splitter drain it counted was deleted; kept until per-request engine counters replace it.",
		bisim.RefineBatches)
	return m
}

// codeClass collapses a status code to its exposition class ("2xx".."5xx").
func codeClass(status int) string {
	switch {
	case status >= 200 && status < 300:
		return "2xx"
	case status >= 300 && status < 400:
		return "3xx"
	case status >= 400 && status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/pkg/podc"
)

// TestOversizedBodyIs413 posts a body beyond MaxBody and expects the
// request to be rejected with 413 before anything is computed.
func TestOversizedBodyIs413(t *testing.T) {
	session := podc.NewSession(podc.WithWorkers(2))
	ts := httptest.NewServer(newHandler(session, serverConfig{Timeout: time.Minute, MaxBody: 256}))
	t.Cleanup(ts.Close)

	big := `{"ring": 4, "formula": "` + strings.Repeat("A", 1024) + `"}`
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s (want 413)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "256 byte limit") {
		t.Errorf("413 body should name the limit: %s", body)
	}
}

// TestUnknownFieldIs400 posts a typoed field name and expects a 400 whose
// body names the offending field instead of silently taking a default.
func TestUnknownFieldIs400(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/correspond",
		map[string]any{"topolgy": "star", "large": 4})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s (want 400)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "topolgy") {
		t.Errorf("400 body should name the unknown field: %s", body)
	}
}

// TestLoadShedding429 fills the admission semaphore with no queue behind it
// and expects further requests to be shed with 429, a Retry-After hint, and
// a moving shed counter.
func TestLoadShedding429(t *testing.T) {
	session := podc.NewSession(podc.WithWorkers(2))
	s := newServer(session, serverConfig{
		Timeout:     time.Minute,
		MaxInflight: 1,
		MaxQueue:    -1, // no queue: the second request sheds immediately
		QueueWait:   50 * time.Millisecond,
	})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	// Occupy the only slot directly: handlers and admit share s.sem.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	resp, body := postJSON(t, ts.URL+"/v1/check",
		checkRequest{Ring: 4, Formula: "forall i . AG (d[i] -> AF c[i])"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s (want 429)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry a Retry-After header")
	}
	if got := metricValue(t, scrapeMetrics(t, ts), "podcserve_shed_total"); got != 1 {
		t.Errorf("podcserve_shed_total = %v, want 1", got)
	}
}

// TestQueuedRequestProceedsWhenSlotFrees parks a request in the wait queue
// and frees the slot before QueueWait expires: the request must be admitted
// and answered, not shed.
func TestQueuedRequestProceedsWhenSlotFrees(t *testing.T) {
	session := podc.NewSession(podc.WithWorkers(2))
	s := newServer(session, serverConfig{
		Timeout:     time.Minute,
		MaxInflight: 1,
		MaxQueue:    8,
		QueueWait:   10 * time.Second,
	})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	s.sem <- struct{}{}
	go func() {
		time.Sleep(100 * time.Millisecond)
		<-s.sem
	}()

	resp, body := postJSON(t, ts.URL+"/v1/check",
		checkRequest{Ring: 4, Formula: "forall i . AG (d[i] -> AF c[i])"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s (want 200 after the slot freed)", resp.StatusCode, body)
	}
}

// sseRow is one decoded "event: row" payload.
type sseRow struct {
	Topology    string `json:"topology"`
	R           int    `json:"r"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Corresponds bool   `json:"corresponds"`
	MaxDegree   int    `json:"max_degree"`
	Error       string `json:"error,omitempty"`
}

// readSSE consumes a server-sent event stream, returning the decoded row
// events and the row count the terminal done event reported.
func readSSE(t *testing.T, r io.Reader) (rows []sseRow, done int) {
	t.Helper()
	done = -1
	sc := bufio.NewScanner(r)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "row":
				var row sseRow
				if err := json.Unmarshal([]byte(data), &row); err != nil {
					t.Fatalf("bad row payload %q: %v", data, err)
				}
				rows = append(rows, row)
			case "done":
				var d sweepDone
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					t.Fatalf("bad done payload %q: %v", data, err)
				}
				done = d.Rows
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return rows, done
}

// TestSSESweepMatchesLibrary streams GET /v1/sweep and checks every
// deterministic field of every row against the library's own
// SweepTopology over the same sizes.
func TestSSESweepMatchesLibrary(t *testing.T) {
	session := podc.NewSession(podc.WithWorkers(2))
	ts := httptest.NewServer(newHandler(session, serverConfig{Timeout: time.Minute}))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/sweep?topology=ring&from=4&to=6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	rows, done := readSSE(t, resp.Body)
	if done != len(rows) {
		t.Fatalf("done event reported %d rows, stream carried %d", done, len(rows))
	}

	topo, _ := podc.TopologyByName("ring")
	var want []podc.SweepResult
	for row := range podc.NewSession(podc.WithWorkers(2)).SweepTopology(context.Background(), topo, []int{4, 5, 6}) {
		want = append(want, row)
	}
	if len(rows) != len(want) {
		t.Fatalf("streamed %d rows, library produced %d", len(rows), len(want))
	}
	// Both streams are in completion order; compare by size.
	sort.Slice(rows, func(i, j int) bool { return rows[i].R < rows[j].R })
	sort.Slice(want, func(i, j int) bool { return want[i].R < want[j].R })
	for i, w := range want {
		got := rows[i]
		if w.Err != nil {
			if got.Error == "" {
				t.Errorf("r=%d: library errored (%v), stream did not", w.R, w.Err)
			}
			continue
		}
		if got.Topology != w.Topology || got.R != w.R || got.States != w.States ||
			got.Transitions != w.Transitions || got.Corresponds != w.Corresponds ||
			got.MaxDegree != w.MaxDegree || got.Error != "" {
			t.Errorf("r=%d: stream %+v != library %+v", w.R, got, w)
		}
	}
}

// TestSSESweepBadTopologyIs400 checks that parameter errors are reported as
// a JSON 400, not an empty event stream.
func TestSSESweepBadTopologyIs400(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/sweep?topology=moebius")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s (want 400)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "moebius") {
		t.Errorf("400 body should name the topology: %s", body)
	}
}

// scrapeMetrics fetches /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue sums every series of the named metric in the exposition text
// (so labelled families like podcserve_requests_total aggregate across
// their children).  It fails the test if the family is absent.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	sum, found := 0.0, false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not exposed", name)
	}
	return sum
}

// TestMetricsEndpointCountersMove drives traffic through every layer — the
// HTTP handler, the session cache, the verdict store and the refinement
// engine — and asserts the corresponding exposed counters advance.
func TestMetricsEndpointCountersMove(t *testing.T) {
	session := podc.NewSession(podc.WithWorkers(2), podc.WithStore(t.TempDir()))
	ts := httptest.NewServer(newHandler(session, serverConfig{Timeout: time.Minute}))
	t.Cleanup(ts.Close)

	before := scrapeMetrics(t, ts)
	// The engine counter is process-global, so diff rather than assert
	// absolute values.
	refineBefore := metricValue(t, before, "podc_engine_refinements_total")
	if strings.Contains(before, "podcserve_requests_total{") {
		t.Errorf("requests_total has samples before any traffic:\n%s", before)
	}

	req := correspondRequest{Small: 3, Large: 4}
	resp, body := postJSON(t, ts.URL+"/v1/correspond", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correspond status %d: %s", resp.StatusCode, body)
	}
	// The identical request again: a session cache hit.
	resp, body = postJSON(t, ts.URL+"/v1/correspond", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correspond status %d: %s", resp.StatusCode, body)
	}

	after := scrapeMetrics(t, ts)
	if got := metricValue(t, after, "podcserve_requests_total"); got != 2 {
		t.Errorf("podcserve_requests_total = %v, want 2", got)
	}
	// One correspond request runs several cached computations (the instance
	// builds plus the correspondence itself), so assert floors, not exact
	// counts.
	atLeast := []struct {
		name string
		want float64
	}{
		{"podc_session_cache_misses_total", 1},
		{"podc_session_cache_hits_total", 1},
		{"podc_store_enabled", 1},
		{"podc_store_misses_total", 1},
		{"podc_store_writes_total", 1},
	}
	for _, c := range atLeast {
		if got := metricValue(t, after, c.name); got < c.want {
			t.Errorf("%s = %v, want at least %v", c.name, got, c.want)
		}
	}
	if got := metricValue(t, after, "podc_engine_refinements_total"); got <= refineBefore {
		t.Errorf("podc_engine_refinements_total did not advance (%v -> %v)", refineBefore, got)
	}
	if got := metricValue(t, after, "podcserve_request_seconds_count"); got != 2 {
		t.Errorf("podcserve_request_seconds_count = %v, want 2", got)
	}
	// The histogram exposes cumulative buckets ending in +Inf.
	if !strings.Contains(after, `podcserve_request_seconds_bucket{endpoint="/v1/correspond",le="+Inf"}`) {
		t.Error("latency histogram missing the +Inf bucket for /v1/correspond")
	}
}

// TestVerifierMemoGauge: a /v1/check with a formula the ring's verifier has
// not seen grows podc_verifier_memo_bytes; the identical request again is
// answered from the memo and leaves the gauge where it was.
func TestVerifierMemoGauge(t *testing.T) {
	ts := newTestServer(t)
	before := metricValue(t, scrapeMetrics(t, ts), "podc_verifier_memo_bytes")
	req := checkRequest{Ring: 4, Formula: "forall i . AG (d[i] -> AF c[i])"}
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status %d: %s", resp.StatusCode, body)
	}
	first := metricValue(t, scrapeMetrics(t, ts), "podc_verifier_memo_bytes")
	if first <= before {
		t.Fatalf("podc_verifier_memo_bytes did not grow on a new formula (%v -> %v)", before, first)
	}
	resp, body = postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status %d: %s", resp.StatusCode, body)
	}
	if again := metricValue(t, scrapeMetrics(t, ts), "podc_verifier_memo_bytes"); again != first {
		t.Fatalf("podc_verifier_memo_bytes moved on a repeated formula (%v -> %v)", first, again)
	}
}

// swapLogOutput redirects the standard logger into w until the returned
// restore function runs.
func swapLogOutput(w io.Writer) func() {
	old := log.Writer()
	log.SetOutput(w)
	return func() { log.SetOutput(old) }
}

// TestWriteJSONLogsEncodeFailures exercises the satellite fix directly: an
// unencodable value must leave a log line naming the request, because the
// client can no longer be told once the header is out.
func TestWriteJSONLogsEncodeFailures(t *testing.T) {
	var buf bytes.Buffer
	restore := swapLogOutput(&buf)
	defer restore()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/doomed", nil)
	writeJSON(rec, req, http.StatusOK, map[string]any{"f": func() {}})
	if !strings.Contains(buf.String(), "/v1/doomed") {
		t.Errorf("encode failure not logged with the request path: %q", buf.String())
	}
}

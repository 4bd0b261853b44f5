package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/podc"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newHandler(podc.NewSession(podc.WithWorkers(2)), serverConfig{Timeout: time.Minute}))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestCheckRing(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/check", checkRequest{
		Ring:    4,
		Formula: "forall i . AG (d[i] -> AF c[i])",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out checkResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Errorf("liveness should hold on M_4: %s", body)
	}
	if !out.Restricted {
		t.Errorf("the liveness property is restricted ICTL*: %s", body)
	}
	if out.States != 64 {
		t.Errorf("M_4 has 4*2^4 = 64 states, got %d", out.States)
	}
}

func TestCheckInlineStructure(t *testing.T) {
	ts := newTestServer(t)
	structure := `structure light
state 0 initial : green
state 1 : yellow
state 2 : red
trans 0 1
trans 1 2
trans 2 0
`
	resp, body := postJSON(t, ts.URL+"/v1/check", checkRequest{
		Structure: structure,
		Formula:   "AG (yellow -> AX red)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out checkResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Errorf("AG (yellow -> AX red) should hold: %s", body)
	}
}

func TestCheckBadRequests(t *testing.T) {
	ts := newTestServer(t)
	for name, req := range map[string]checkRequest{
		"no structure":   {Formula: "AG p"},
		"both sources":   {Ring: 3, Structure: "structure x\nstate 0 initial\ntrans 0 0\n", Formula: "AG p"},
		"bad formula":    {Ring: 3, Formula: "AG ((("},
		"no formula":     {Ring: 3},
		"structure junk": {Structure: "nonsense directive", Formula: "AG p"},
		"deadlocked":     {Structure: "structure dead\nstate 0 initial : p\nstate 1 : q\ntrans 0 1\n", Formula: "AG EF q"},
		"oversized ring": {Ring: 100, Formula: "AG p"},
		"ring of one":    {Ring: 1, Formula: "AG p"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/check", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", name, resp.StatusCode, body)
		}
	}
}

func TestCorrespondOversizedRingIsClientError(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/correspond", correspondRequest{Large: 25})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d (want 400): %s", resp.StatusCode, body)
	}
}

// TestConcurrentCorrespond is the serving-side acceptance test: many
// concurrent /v1/correspond requests for rings up to r=10 are answered
// correctly from one shared session, with identical concurrent requests
// deduplicated onto one computation.
func TestConcurrentCorrespond(t *testing.T) {
	ts := newTestServer(t)
	sizes := []int{4, 5, 6, 7, 8, 9, 10}
	const clientsPerSize = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(sizes)*clientsPerSize)
	for _, r := range sizes {
		for c := 0; c < clientsPerSize; c++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				resp, body := postJSON(t, ts.URL+"/v1/correspond", correspondRequest{Large: r})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("r=%d: status %d: %s", r, resp.StatusCode, body)
					return
				}
				var out correspondResponse
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- fmt.Errorf("r=%d: %v", r, err)
					return
				}
				if !out.Corresponds {
					errs <- fmt.Errorf("r=%d: cutoff correspondence should hold: %s", r, body)
				}
			}(r)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCancelledRequestStopsEngine verifies that a request whose context is
// already past its deadline stops the underlying engine promptly instead of
// computing a correspondence nobody is waiting for.
func TestCancelledRequestStopsEngine(t *testing.T) {
	ts := newTestServer(t)
	data, err := json.Marshal(correspondRequest{Large: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/correspond", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("expected the client deadline to abort the request, got status %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled request took %v to return", elapsed)
	}
	// The session must remain usable: the failed computation is not cached,
	// so a healthy retry succeeds.
	resp2, body := postJSON(t, ts.URL+"/v1/correspond", correspondRequest{Large: 4})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after cancellation: status %d: %s", resp2.StatusCode, body)
	}
}

func TestTransferCertificate(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/transfer", transferRequest{Large: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	cert, err := podc.TransferCertificateFromJSON(body)
	if err != nil {
		t.Fatalf("certificate does not round-trip: %v", err)
	}
	if cert.SmallSize() != podc.RingCutoffSize || cert.LargeSize() != 5 {
		t.Errorf("certificate sizes = (%d, %d), want (%d, 5)", cert.SmallSize(), cert.LargeSize(), podc.RingCutoffSize)
	}
	// The served certificate re-validates against freshly built instances.
	if err := cert.Validate(podc.RingTopology().Family()); err != nil {
		t.Errorf("served certificate fails validation: %v", err)
	}
}

func TestTransferRefusedForTwoProcessCutoff(t *testing.T) {
	ts := newTestServer(t)
	// The reproduction finding: M_2 corresponds to no larger ring, so no
	// certificate exists.
	resp, body := postJSON(t, ts.URL+"/v1/transfer", transferRequest{Small: 2, Large: 4})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (want 422): %s", resp.StatusCode, body)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/experiments/E1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var tbl podc.Table
	if err := json.NewDecoder(resp.Body).Decode(&tbl); err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "E1" || len(tbl.Rows) == 0 {
		t.Errorf("experiment table looks wrong: %+v", tbl)
	}
	if !strings.Contains(tbl.Title, "Fig. 3.1") {
		t.Errorf("unexpected title %q", tbl.Title)
	}

	resp2, err := http.Get(ts.URL + "/v1/experiments/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d (want 404)", resp2.StatusCode)
	}
}

// TestCorrespondTopologies drives /v1/correspond across the generalised
// families: each topology's cutoff instance corresponds to a larger one,
// and the response echoes the topology it was decided for.
func TestCorrespondTopologies(t *testing.T) {
	ts := newTestServer(t)
	for topo, large := range map[string]int{"star": 6, "line": 6, "tree": 6, "torus": 8} {
		resp, body := postJSON(t, ts.URL+"/v1/correspond", correspondRequest{Topology: topo, Large: large})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", topo, resp.StatusCode, body)
		}
		var out correspondResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Topology != topo {
			t.Errorf("%s: response names topology %q", topo, out.Topology)
		}
		if !out.Corresponds {
			t.Errorf("%s: cutoff correspondence should hold: %s", topo, body)
		}
		if out.Small == 0 {
			t.Errorf("%s: small must default to the topology's cutoff: %s", topo, body)
		}
	}
}

func TestCorrespondTopologyBadRequests(t *testing.T) {
	ts := newTestServer(t)
	for name, req := range map[string]correspondRequest{
		"unknown topology": {Topology: "moebius", Large: 6},
		"odd torus":        {Topology: "torus", Large: 7},
		"small too small":  {Topology: "line", Small: 1, Large: 6},
		"inverted sizes":   {Topology: "star", Small: 5, Large: 4},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/correspond", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", name, resp.StatusCode, body)
		}
	}
}

// TestTransferTopology builds a transfer certificate for a non-ring family
// and re-validates it against fresh instances of the same topology.
func TestTransferTopology(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/transfer", transferRequest{Topology: "star", Large: 6})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	cert, err := podc.TransferCertificateFromJSON(body)
	if err != nil {
		t.Fatalf("decoding certificate: %v", err)
	}
	if cert.FamilyName() != "star" {
		t.Errorf("certificate family %q, want star", cert.FamilyName())
	}
	star, _ := podc.TopologyByName("star")
	if err := cert.Validate(star.Family()); err != nil {
		t.Errorf("certificate fails re-validation: %v", err)
	}
}

// TestCheckEvidence: a failing check with evidence requested returns the
// decisive subformula and a counterexample trace.
func TestCheckEvidence(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/check", checkRequest{
		Ring:     3,
		Formula:  "forall i . AG c[i]",
		Evidence: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out checkResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Fatalf("AG c[i] cannot hold on M_3: %s", body)
	}
	if out.Evidence == nil {
		t.Fatalf("no evidence in response: %s", body)
	}
	if out.Evidence.Decisive == "" || out.Evidence.Trace == "" {
		t.Errorf("evidence should carry a decisive subformula and a trace: %s", body)
	}
}

// TestCheckEvidenceWitness: a holding existential check yields a witness
// trace.
func TestCheckEvidenceWitness(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/check", checkRequest{
		Ring:     3,
		Formula:  "E (true U c[1])",
		Evidence: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out checkResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Holds || out.Evidence == nil || len(out.Evidence.TraceStates) == 0 {
		t.Fatalf("expected a witness trace for EF c[1]: %s", body)
	}
}

// TestCorrespondEvidence: the refuted M_2 vs M_4 correspondence returns a
// replay-confirmed distinguishing formula naming the failing pair.
func TestCorrespondEvidence(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/correspond", correspondRequest{
		Topology: "ring",
		Small:    2,
		Large:    4,
		Evidence: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out correspondResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Corresponds {
		t.Fatalf("M_2 and M_4 must not correspond: %s", body)
	}
	if out.Evidence == nil {
		t.Fatalf("no evidence in response: %s", body)
	}
	if out.Evidence.Formula == "" || !out.Evidence.Confirmed {
		t.Errorf("evidence must carry a confirmed distinguishing formula: %s", body)
	}
	if out.Evidence.Pair.I == 0 && out.Evidence.Pair.I2 == 0 {
		t.Errorf("evidence should name the failing index pair: %s", body)
	}
}

// TestCorrespondEvidenceOmittedOnSuccess: a correspondence that holds has
// no evidence object even when requested.
func TestCorrespondEvidenceOmittedOnSuccess(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/correspond", correspondRequest{
		Topology: "star",
		Small:    3,
		Large:    5,
		Evidence: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out correspondResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Corresponds {
		t.Fatalf("star M_3 and M_5 should correspond: %s", body)
	}
	if out.Evidence != nil {
		t.Errorf("no evidence expected for a holding correspondence: %s", body)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestStoreStatsDisabled(t *testing.T) {
	ts := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/v1/store")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out storeStatsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled {
		t.Fatalf("store must report disabled on a session without WithStore: %s", body)
	}
}

func TestStoreStatsCountsCorrespondenceTraffic(t *testing.T) {
	dir := t.TempDir()
	session := podc.NewSession(podc.WithWorkers(2), podc.WithStore(dir))
	ts := httptest.NewServer(newHandler(session, serverConfig{Timeout: time.Minute}))
	t.Cleanup(ts.Close)

	resp, body := postJSON(t, ts.URL+"/v1/correspond", correspondRequest{Small: 3, Large: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correspond status %d: %s", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts.URL+"/v1/store")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out storeStatsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || out.Misses != 1 || out.Writes != 1 {
		t.Fatalf("after one cold correspondence: %s (want enabled, 1 miss, 1 write)", body)
	}

	// A second service sharing the directory answers the same request from
	// disk: its first correspondence is a store hit, not a recompute.
	session2 := podc.NewSession(podc.WithWorkers(2), podc.WithStore(dir))
	ts2 := httptest.NewServer(newHandler(session2, serverConfig{Timeout: time.Minute}))
	t.Cleanup(ts2.Close)
	resp, body = postJSON(t, ts2.URL+"/v1/correspond", correspondRequest{Small: 3, Large: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed correspond status %d: %s", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts2.URL+"/v1/store")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || out.Hits != 1 {
		t.Fatalf("restarted service stats: %s (want 1 hit)", body)
	}
}

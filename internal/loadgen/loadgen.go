// Package loadgen drives a podcserve instance with a mixed request battery
// whose expected answers are computed directly from the library, so a load
// run is also a differential correctness check: every response must be
// byte-identical (after dropping wall-clock fields) to what the library
// says, at every concurrency level.  Both cmd/podcload and the podcserve
// tests replay the same battery.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/pkg/podc"
)

// Request is one battery item: what to send and the canonical body a
// correct server answers with.
type Request struct {
	Name   string
	Method string
	Path   string
	// Body is the JSON request body (nil for GET).
	Body []byte
	// Expect is the canonical (see Canonicalize) expected response body.
	Expect []byte
}

// checkExpect mirrors podcserve's checkResponse minus its wall-clock field.
type checkExpect struct {
	Holds      bool   `json:"holds"`
	Formula    string `json:"formula"`
	Structure  string `json:"structure"`
	States     int    `json:"states"`
	Restricted bool   `json:"restricted"`
}

// correspondExpect mirrors podcserve's correspondResponse the same way.
type correspondExpect struct {
	Topology     string           `json:"topology"`
	Small        int              `json:"small"`
	Large        int              `json:"large"`
	Corresponds  bool             `json:"corresponds"`
	MaxDegree    int              `json:"max_degree"`
	IndexPairs   int              `json:"index_pairs"`
	FailingPairs []podc.IndexPair `json:"failing_pairs,omitempty"`
}

// Battery computes the mixed request set against the library: model checks
// of a true and a false ring property, correspondences across four
// topologies, transfer certificates, and the deterministic E1 experiment
// table.  The session is the oracle; it should be configured like the
// server under test (same worker options do not matter for verdicts).
func Battery(ctx context.Context, session *podc.Session) ([]Request, error) {
	var battery []Request

	addCheck := func(name string, ring int, formula string) error {
		f, err := podc.ParseFormula(formula)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v, err := session.Verifier(ctx, podc.RingTopology(), ring)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		holds, err := v.Check(ctx, f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		body, err := json.Marshal(map[string]any{"ring": ring, "formula": formula})
		if err != nil {
			return err
		}
		expect, err := canonicalOf(checkExpect{
			Holds:      holds,
			Formula:    f.String(),
			Structure:  v.Original().Name(),
			States:     v.Original().NumStates(),
			Restricted: f.IsRestricted(),
		})
		if err != nil {
			return err
		}
		battery = append(battery, Request{
			Name: name, Method: http.MethodPost, Path: "/v1/check",
			Body: body, Expect: expect,
		})
		return nil
	}
	addCorrespond := func(name, topology string, small, large int) error {
		topo, ok := podc.TopologyByName(topology)
		if !ok {
			return fmt.Errorf("%s: unknown topology %q", name, topology)
		}
		corr, err := session.Correspondence(ctx, topo, small, large)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		body, err := json.Marshal(map[string]any{"topology": topology, "small": small, "large": large})
		if err != nil {
			return err
		}
		expect, err := canonicalOf(correspondExpect{
			Topology:     topo.Name(),
			Small:        small,
			Large:        large,
			Corresponds:  corr.Corresponds(),
			MaxDegree:    corr.MaxDegree(),
			IndexPairs:   len(corr.IndexRelation()),
			FailingPairs: corr.FailingPairs(),
		})
		if err != nil {
			return err
		}
		battery = append(battery, Request{
			Name: name, Method: http.MethodPost, Path: "/v1/correspond",
			Body: body, Expect: expect,
		})
		return nil
	}
	addTransfer := func(name, topology string, small, large int) error {
		topo, ok := podc.TopologyByName(topology)
		if !ok {
			return fmt.Errorf("%s: unknown topology %q", name, topology)
		}
		cert, err := session.TransferCertificate(ctx, topo, small, large)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		body, err := json.Marshal(map[string]any{"topology": topology, "small": small, "large": large})
		if err != nil {
			return err
		}
		expect, err := canonicalOf(cert)
		if err != nil {
			return err
		}
		battery = append(battery, Request{
			Name: name, Method: http.MethodPost, Path: "/v1/transfer",
			Body: body, Expect: expect,
		})
		return nil
	}

	// True liveness across three ring sizes, plus a property that fails, so
	// both verdict polarities are exercised under load.
	for _, r := range []int{4, 5, 6} {
		if err := addCheck(fmt.Sprintf("check-liveness-r%d", r), r,
			"forall i . AG (d[i] -> AF c[i])"); err != nil {
			return nil, err
		}
	}
	if err := addCheck("check-false-r4", 4, "forall i . AG c[i]"); err != nil {
		return nil, err
	}

	for _, tc := range []struct {
		topology     string
		small, large int
	}{
		{"ring", 3, 4},
		{"ring", 3, 5},
		{"star", 0, 0}, // sizes filled from the cutoff below
		{"line", 0, 0},
		{"tree", 0, 0},
	} {
		small, large := tc.small, tc.large
		if small == 0 {
			topo, _ := podc.TopologyByName(tc.topology)
			small = topo.CutoffSize()
			large = small + 1
			if topo.ValidSize(large) != nil {
				large = small + 2
			}
		}
		name := fmt.Sprintf("correspond-%s-%d-%d", tc.topology, small, large)
		if err := addCorrespond(name, tc.topology, small, large); err != nil {
			return nil, err
		}
	}

	if err := addTransfer("transfer-ring-3-4", "ring", 3, 4); err != nil {
		return nil, err
	}

	tbl, err := session.Experiment(ctx, "E1")
	if err != nil {
		return nil, fmt.Errorf("experiment E1: %w", err)
	}
	expect, err := canonicalOf(tbl)
	if err != nil {
		return nil, err
	}
	battery = append(battery, Request{
		Name: "experiment-E1", Method: http.MethodGet, Path: "/v1/experiments/E1",
		Expect: expect,
	})
	return battery, nil
}

// Canonicalize reduces a JSON body to a stable comparable form: wall-clock
// fields (elapsed_ms) are dropped recursively and the result re-marshalled,
// which sorts all object keys and normalises whitespace.  Two bodies with
// the same verdicts canonicalize to identical bytes.
func Canonicalize(body []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return json.Marshal(stripClocks(v))
}

func canonicalOf(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return Canonicalize(raw)
}

// stripClocks removes elapsed_ms keys at every nesting depth.
func stripClocks(v any) any {
	switch t := v.(type) {
	case map[string]any:
		delete(t, "elapsed_ms")
		for k, e := range t {
			t[k] = stripClocks(e)
		}
	case []any:
		for i, e := range t {
			t[i] = stripClocks(e)
		}
	}
	return v
}

// Options configure one load level.
type Options struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client defaults to http.DefaultClient.
	Client *http.Client
	// Concurrency is the number of in-flight workers.
	Concurrency int
	// Requests is the total number of requests for the level, spread
	// round-robin over the battery.
	Requests int
}

// Mismatch records one response that differed from the library's answer.
type Mismatch struct {
	Name string `json:"name"`
	Got  string `json:"got"`
	Want string `json:"want"`
}

// LevelResult summarises one concurrency level of a load run.
type LevelResult struct {
	Concurrency   int     `json:"concurrency"`
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	Mismatches    int     `json:"mismatches"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50ms         float64 `json:"p50_ms"`
	P99ms         float64 `json:"p99_ms"`

	// FirstError and FirstMismatch carry one concrete example each, so a
	// failed run is diagnosable from the report alone.
	FirstError    string    `json:"first_error,omitempty"`
	FirstMismatch *Mismatch `json:"first_mismatch,omitempty"`
}

// Run replays the battery at the configured concurrency and verifies every
// response against its canonical expectation.
func Run(ctx context.Context, battery []Request, opts Options) (LevelResult, error) {
	if len(battery) == 0 {
		return LevelResult{}, fmt.Errorf("loadgen: empty battery")
	}
	if opts.Concurrency < 1 {
		opts.Concurrency = 1
	}
	if opts.Requests < 1 {
		opts.Requests = len(battery)
	}
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}

	var (
		mu        sync.Mutex
		latencies []float64
		res       = LevelResult{Concurrency: opts.Concurrency, Requests: opts.Requests}
	)
	record := func(elapsed time.Duration, errText string, mism *Mismatch) {
		mu.Lock()
		defer mu.Unlock()
		latencies = append(latencies, float64(elapsed)/float64(time.Millisecond))
		if errText != "" {
			res.Errors++
			if res.FirstError == "" {
				res.FirstError = errText
			}
		}
		if mism != nil {
			res.Mismatches++
			if res.FirstMismatch == nil {
				res.FirstMismatch = mism
			}
		}
	}

	one := func(item Request) {
		var reqBody io.Reader
		if item.Body != nil {
			reqBody = bytes.NewReader(item.Body)
		}
		req, err := http.NewRequestWithContext(ctx, item.Method, opts.BaseURL+item.Path, reqBody)
		if err != nil {
			record(0, fmt.Sprintf("%s: %v", item.Name, err), nil)
			return
		}
		if item.Body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		start := time.Now()
		resp, err := client.Do(req)
		elapsed := time.Since(start)
		if err != nil {
			record(elapsed, fmt.Sprintf("%s: %v", item.Name, err), nil)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			record(elapsed, fmt.Sprintf("%s: reading body: %v", item.Name, err), nil)
			return
		}
		if resp.StatusCode != http.StatusOK {
			record(elapsed, fmt.Sprintf("%s: status %d: %s", item.Name, resp.StatusCode, body), nil)
			return
		}
		got, err := Canonicalize(body)
		if err != nil {
			record(elapsed, fmt.Sprintf("%s: response not JSON: %v", item.Name, err), nil)
			return
		}
		if !bytes.Equal(got, item.Expect) {
			record(elapsed, "", &Mismatch{Name: item.Name, Got: string(got), Want: string(item.Expect)})
			return
		}
		record(elapsed, "", nil)
	}

	work := make(chan Request)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range work {
				one(item)
			}
		}()
	}
	for i := 0; i < opts.Requests; i++ {
		work <- battery[i%len(battery)]
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	if wall > 0 {
		res.ThroughputRPS = float64(opts.Requests) / wall.Seconds()
	}
	sort.Float64s(latencies)
	res.P50ms = Percentile(latencies, 50)
	res.P99ms = Percentile(latencies, 99)
	return res, nil
}

// Percentile reads the p-th percentile (nearest-rank) from an ascending
// slice of samples; it returns 0 on an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

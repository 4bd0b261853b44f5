// Package bench is the repository's benchmark: four workloads that drive
// the system the way its users do — a cold topology sweep, seeded model
// checks over HTTP, the mixed podcserve battery over HTTP, and verdict-store
// replay — and measure them end to end and, in a traced run, layer by
// layer.  Every answer is checked against an oracle that did not produce
// it.  cmd/podcbench is the command; README.md explains the workloads and
// the metrics.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Workloads lists the workload names in BENCHMARK.json order.
var Workloads = []string{"sweep", "check", "battery", "replay"}

// MetricDef names one metric and its unit.
type MetricDef struct {
	Name, Unit string
}

// EndToEnd are the metrics of an untraced run, reported by every workload.
// An "operation" is one full sweep, one HTTP request, or one replay pass.
// Only metrics that repeat from run to run on a shared host are here; the
// timings, which move with the host, are the first per-layer metrics.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// PerLayer are the metrics of a traced run, reported by every workload; a
// layer the workload leaves idle reads 0.  Times and counts are per
// operation unless the unit says otherwise.  The first four are the
// end-to-end timings of the run's untraced operations (see timings).
var PerLayer = []MetricDef{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms", "ms"},
	{"explore.build_ms", "ms"},
	{"explore.states_per_s", "1/s"},
	{"kripke.reduce_ms", "ms"},
	{"bisim.compute_ms", "ms"},
	{"bisim.refinements", "count"},
	{"bisim.refine_batches", "count"},
	{"bisim.check_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.restore_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.bytes_read", "bytes"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.invalid", "count"},
	{"store.writes", "count"},
	{"logic.parse_us", "us"},
	{"mc.holds_ms", "ms"},
	{"mc.state_sets_computed", "count"},
	{"mc.memo_hit_ratio", "ratio"},
	{"mc.fixpoint_iterations", "count"},
	{"session.hit_ratio", "ratio"},
	{"server.request_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"json.response_bytes", "bytes"},
	{"server.shed", "count"},
	{"client.verify_ms", "ms"},
	{"cpu_per_wall", "ratio"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// Config describes one benchmark run.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is the length of the timed phase; every timed phase runs at
	// least one operation.  The check workload sends a request count
	// proportional to it instead (checkRequests).
	Seconds float64
	// Trace makes the run traced: operations alternate between untraced
	// and traced, and the result carries the per-layer metrics.
	Trace bool
	// Out is the directory for the run's stores, record and trace; empty
	// means .bench_build at the repository root.
	Out string
	// Server is the podcserve binary the HTTP workloads start; empty means
	// build it from the repository into Out.
	Server string

	// The fields below shrink a run to test size; zero keeps the full size.
	MaxOps    int // stop the timed phase after this many operations
	SweepMax  int // largest instance size a sweep decides
	SetupReps int // set-up repetitions, of which setup_s is the median
}

// Defaults of the full-size run.
const (
	// defaultSweepMax is the largest size of a full sweep (53 cells).  The
	// r = 14 ring cell runs for most of a sweep's wall time and sets its
	// peak memory (1.2-1.5 GB).
	defaultSweepMax  = 14
	defaultSetupReps = 9
)

func (c Config) withDefaults() Config {
	if c.Seconds <= 0 {
		c.Seconds = 20
	}
	if c.Out == "" {
		c.Out = ".bench_build"
		if root, err := repoRoot(); err == nil {
			c.Out = filepath.Join(root, ".bench_build")
		}
	}
	if c.SweepMax <= 0 {
		c.SweepMax = defaultSweepMax
	}
	if c.SetupReps <= 0 {
		c.SetupReps = defaultSetupReps
	}
	return c
}

func (c Config) budget() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// more reports whether a sequential timed phase that started at start and
// completed done operations runs another one.
func (c Config) more(start time.Time, done int) bool {
	if c.MaxOps > 0 && done >= c.MaxOps {
		return false
	}
	return done == 0 || time.Since(start) < c.budget()
}

// traced reports whether operation k of a traced run is a traced one; the
// others are the untraced baseline the tracing overhead is measured against.
func (c Config) traced(k int) bool { return c.Trace && k%2 == 1 }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of a run: the correctness verdict and the metrics
// the run reports (EndToEnd untraced, PerLayer traced).
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Failures holds the first few wrong answers, for the log.
	Failures []string `json:"-"`
	// RecordPath and TracePath name the files the run wrote.
	RecordPath string `json:"-"`
	TracePath  string `json:"-"`
	// Report is the traced run's human-readable per-layer table.
	Report string `json:"-"`
}

// outcome is what a workload measured; Run turns it into a Result.
type outcome struct {
	setup []float64 // seconds per set-up repetition
	ops   []float64 // ms per untraced timed operation
	// sub holds the samples of the tail metric when it is taken over parts
	// of an operation (cells of a sweep, keys of a pass); nil means ops.
	sub     []float64
	tailPct float64
	units   int           // work units done in the timed phase (cells, requests, keys)
	wall    time.Duration // time the operations took
	cpu     time.Duration // CPU time of the measured process during them
	// allocPerOp is the measured process's heap allocation per operation
	// and peakRSS its peak resident memory, both in MB.
	allocPerOp, peakRSS float64

	attempted, failed int
	failures          []string

	// layer holds the per-layer metrics a traced run measured.
	layer map[string]float64
	spans []spanRecord
	// tracedOps are the traced operations' times, for the overhead.
	tracedOps []float64
	notes     map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(key string, v any) {
	if o.notes == nil {
		o.notes = make(map[string]any)
	}
	o.notes[key] = v
}

// Run executes one benchmark run.  An error means the run could not be
// measured; wrong answers are reported through Result.Correct.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	work, err := os.MkdirTemp(cfg.Out, "run-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(work)

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var o *outcome
	switch cfg.Workload {
	case "sweep":
		o, err = runSweep(ctx, cfg, work, tr)
	case "check":
		o, err = runCheck(ctx, cfg, work, tr)
	case "battery":
		o, err = runBattery(ctx, cfg, work, tr)
	case "replay":
		o, err = runReplay(ctx, cfg, work, tr)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (have %s)", cfg.Workload, strings.Join(Workloads, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", cfg.Workload, err)
	}
	if len(o.ops) == 0 || len(o.setup) == 0 {
		return nil, fmt.Errorf("bench: %s: no operation completed", cfg.Workload)
	}

	res := &Result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Failures:  o.failures,
		Metrics:   make(map[string]Metric),
	}
	e2e, tm := endToEnd(o), timings(o)
	var layer map[string]float64
	if cfg.Trace {
		layer = perLayer(o, tm)
		for _, m := range PerLayer {
			res.Metrics[m.Name] = Metric{Value: layer[m.Name], Unit: m.Unit}
		}
		res.Report = layerReport(o, layer)
		res.TracePath = filepath.Join(cfg.Out, fmt.Sprintf("trace-%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := writeTrace(res.TracePath, o.spans); err != nil {
			return nil, fmt.Errorf("bench: writing trace: %w", err)
		}
	} else {
		for _, m := range EndToEnd {
			res.Metrics[m.Name] = Metric{Value: e2e[m.Name], Unit: m.Unit}
		}
	}
	res.RecordPath = filepath.Join(cfg.Out, fmt.Sprintf("record-%s-seed%d-trace%v.json", cfg.Workload, cfg.Seed, cfg.Trace))
	if err := writeRecord(res.RecordPath, cfg, o, res, e2e, tm, layer); err != nil {
		return nil, fmt.Errorf("bench: writing record: %w", err)
	}
	return res, nil
}

// endToEnd computes the EndToEnd metrics.
func endToEnd(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":     median(o.setup),
		"alloc_mb":    o.allocPerOp,
		"peak_rss_mb": o.peakRSS,
	}
}

// timings computes the end-to-end timings from the untraced operations.
// They are what a user waits for, but on a shared host they move with the
// host's load by more than any regression bound allows (see README.md,
// Calibration), so they are reported with the per-layer metrics.
func timings(o *outcome) map[string]float64 {
	sub := o.sub
	if sub == nil {
		sub = o.ops
	}
	return map[string]float64{
		"p50_ms":         median(o.ops),
		"tail_ms":        percentile(sub, o.tailPct),
		"throughput_rps": float64(o.units) / o.wall.Seconds(),
		"cpu_ms":         ms(o.cpu) / float64(len(o.ops)+len(o.tracedOps)),
	}
}

// perLayer completes the workload's per-layer metrics with the timings and
// the ones every workload derives the same way.
func perLayer(o *outcome, tm map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(PerLayer))
	for k, v := range o.layer {
		out[k] = v
	}
	for k, v := range tm {
		out[k] = v
	}
	out["cpu_per_wall"] = o.cpu.Seconds() / o.wall.Seconds()
	out["trace.coverage_pct"] = 100 * coverage(layerStats(o.spans))
	if base := median(o.ops); base > 0 && len(o.tracedOps) > 0 {
		out["trace.overhead_pct"] = 100 * (median(o.tracedOps) - base) / base
	}
	return out
}

// layerReport renders the traced run's per-layer self times.
func layerReport(o *outcome, layer map[string]float64) string {
	stats := layerStats(o.spans)
	var total int64
	for _, st := range stats {
		total += st.SelfNS
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %12s %7s %s\n", "layer", "spans", "self_ms", "share", "contained")
	for _, name := range sortedKeys(stats) {
		st := stats[name]
		share := 0.0
		if total > 0 {
			share = 100 * float64(st.SelfNS) / float64(total)
		}
		contained := ""
		if st.ContainedNS > 0 {
			contained = fmt.Sprintf("%.3f ms measured apart, inside %s", float64(st.ContainedNS)/1e6, st.ContainedIn)
		}
		fmt.Fprintf(&b, "%-10s %8d %12.3f %6.2f%% %s\n", name, st.Spans, float64(st.SelfNS)/1e6, share, contained)
	}
	fmt.Fprintf(&b, "coverage %.2f%% of traced time inside layer spans; tracing overhead %+.2f%% (traced vs untraced operation median)\n",
		layer["trace.coverage_pct"], layer["trace.overhead_pct"])
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// record is the run's full JSON record: the metrics plus every sample and
// the environment they were measured in.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	GitSHA     string             `json:"git_sha"`
	Finished   string             `json:"finished"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Timings    map[string]float64 `json:"timings"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Layers     []*layerStat       `json:"layers,omitempty"`
	Samples    map[string]any     `json:"samples"`
	Notes      map[string]any     `json:"notes,omitempty"`
}

func writeRecord(path string, cfg Config, o *outcome, res *Result, e2e, tm, layer map[string]float64) error {
	rec := record{
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Trace:      cfg.Trace,
		Seconds:    cfg.Seconds,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		Finished:   time.Now().UTC().Format(time.RFC3339),
		Correct:    res.Correct,
		Attempted:  res.Attempted,
		Failed:     res.Failed,
		Failures:   res.Failures,
		EndToEnd:   e2e,
		Timings:    tm,
		PerLayer:   layer,
		Samples: map[string]any{
			"setup_s":      o.setup,
			"op_ms":        o.ops,
			"traced_op_ms": o.tracedOps,
			"tail_ms":      o.sub,
		},
		Notes: o.notes,
	}
	if cfg.Trace {
		stats := layerStats(o.spans)
		for _, name := range sortedKeys(stats) {
			rec.Layers = append(rec.Layers, stats[name])
		}
	}
	blob, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// gitSHA returns the checkout's commit, or "unknown" outside a git
// working tree (the benchmark also runs from exported source trees).
func gitSHA() string {
	root, err := repoRoot()
	if err != nil {
		return "unknown"
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory whose go.mod declares module repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(mod), "\n") {
				if strings.TrimSpace(line) == "module repro" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no repository root (go.mod with module repro) above the working directory")
		}
		dir = parent
	}
}

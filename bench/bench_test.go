package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/family"
	"repro/internal/logic"
)

// TestWorkloadsSmoke runs every workload at toy size, untraced and traced,
// and checks that each run is correct and reports every metric it owes:
// the end-to-end ones non-zero, the per-layer ones present.
func TestWorkloadsSmoke(t *testing.T) {
	bin, err := buildServer(t.Context(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"sweep": 2, "check": 50, "battery": 100, "replay": 2}
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			name := w
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := Run(t.Context(), Config{
					Workload: w, Seed: 1, Seconds: 120, Trace: trace,
					Out: t.TempDir(), Server: bin,
					MaxOps: sizes[w], SweepMax: 6, SetupReps: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				defs := EndToEnd
				if trace {
					defs = PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace && res.Metrics["trace.coverage_pct"].Value < 90 {
					t.Errorf("trace coverage %.1f%%, want >= 90%%", res.Metrics["trace.coverage_pct"].Value)
				}
			})
		}
	}
}

// TestRunRejectsUnknownWorkload checks the one input error Run reports
// before doing any work.
func TestRunRejectsUnknownWorkload(t *testing.T) {
	if _, err := Run(context.Background(), Config{Workload: "nope", Out: t.TempDir()}); err == nil {
		t.Fatal("Run accepted an unknown workload")
	}
}

// TestGoldenMatchesDecisions cross-checks the committed sweep verdicts
// against family.DecideCorrespondence for every size up to 10, and checks
// that the golden file covers every cell a default sweep visits.
func TestGoldenMatchesDecisions(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range family.Topologies() {
		for n := sweepMin; n <= defaultSweepMax; n++ {
			if topo.ValidSize(n) != nil || n < topo.CutoffSize() {
				continue
			}
			want, ok := golden[cellKey(topo.Name(), n)]
			if !ok {
				t.Errorf("golden file lacks %s n=%d", topo.Name(), n)
				continue
			}
			if n > 10 {
				continue
			}
			large, err := topo.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := family.DecideCorrespondence(t.Context(), topo, topo.CutoffSize(), n)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenCell{Topology: topo.Name(), N: n, States: large.NumStates(), Transitions: large.NumTransitions(), Corresponds: res.Corresponds()}
			for _, p := range res.Pairs {
				got.MaxDegree = max(got.MaxDegree, p.Relation.MaxDegree())
			}
			if got != want {
				t.Errorf("%s n=%d: decided %+v, golden %+v", topo.Name(), n, got, want)
			}
		}
	}
}

// TestCheckRequestsAreSeeded pins the first 100 check requests of seed 1,
// requires them all to parse as closed formulas, and requires another seed
// to draw different ones.
func TestCheckRequestsAreSeeded(t *testing.T) {
	const pinned = "3871aef00a9076fa4891ff34b865c2bc0f1ea9f78c71826abc55b85b5bc7c62f"
	first := func(seed uint64) []string {
		var out []string
		for i := range 100 {
			ring, f := checkRequest(seed, i)
			if !slices.Contains(checkRings, ring) {
				t.Fatalf("request %d: ring %d not in %v", i, ring, checkRings)
			}
			parsed, err := logic.Parse(f)
			if err != nil {
				t.Fatalf("request %d: %q does not parse: %v", i, f, err)
			}
			if !logic.IsClosed(parsed) {
				t.Fatalf("request %d: %q is not closed", i, f)
			}
			out = append(out, f)
		}
		return out
	}
	a, b := first(1), first(1)
	if !slices.Equal(a, b) {
		t.Fatal("seed 1 drew two different request streams")
	}
	if slices.Equal(a, first(2)) {
		t.Fatal("seeds 1 and 2 drew the same request stream")
	}
	sum := sha256.Sum256([]byte(strings.Join(a, "\n")))
	if got := hex.EncodeToString(sum[:]); got != pinned {
		t.Errorf("first 100 formulas of seed 1 hash to %s, pinned %s; first: %s", got, pinned, a[0])
	}
}

// TestBenchmarkJSONMatchesCode keeps ../BENCHMARK.json and the metric
// tables of this package in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !slices.Equal(workloads, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", workloads, Workloads)
	}
	same := func(what string, listed []struct{ Name, Unit string }, code []MetricDef) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", what, len(listed), len(code))
			return
		}
		for i := range code {
			if listed[i].Name != code[i].Name || listed[i].Unit != code[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, code %s %s", what, i, listed[i].Name, listed[i].Unit, code[i].Name, code[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, EndToEnd)
	same("per_layer", spec.PerLayer, PerLayer)
}

// TestEveryLayerMetricHasAPrediction requires README.md's per-layer table
// to name every per-layer metric in a row that says which end-to-end
// metric it should move, on which workload.  (BENCHMARK.json's per_layer
// entries carry only name, unit and better, so the prediction lives there.)
func TestEveryLayerMetricHasAPrediction(t *testing.T) {
	blob, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(blob), "\n## Per-layer metrics")
	if !ok {
		t.Fatal(`README.md has no "## Per-layer metrics" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	moves := make(map[string]string)
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(line, "| `") || len(cells) != 3 {
			continue
		}
		for _, name := range strings.Split(cells[0], ", ") {
			moves[strings.Trim(name, "`")] = strings.TrimSpace(cells[2])
		}
	}
	for _, m := range PerLayer {
		if moves[m.Name] == "" {
			t.Errorf("README.md's per-layer table has no prediction for %s", m.Name)
		}
	}
}

package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/family"
	"repro/internal/ring"
)

func TestRunnerCollectPreservesOrderAndRunsEverything(t *testing.T) {
	var ran atomic.Int64
	var jobs []Job
	for i := 0; i < 9; i++ {
		i := i
		jobs = append(jobs, Job{ID: fmt.Sprintf("J%d", i), Run: func(context.Context) (*Table, error) {
			ran.Add(1)
			return &Table{ID: fmt.Sprintf("J%d", i)}, nil
		}})
	}
	tables, err := Runner{Workers: 4}.Collect(context.Background(), jobs)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if ran.Load() != int64(len(jobs)) {
		t.Fatalf("ran %d of %d jobs", ran.Load(), len(jobs))
	}
	for i, tbl := range tables {
		if tbl.ID != fmt.Sprintf("J%d", i) {
			t.Fatalf("table %d is %q — collection must preserve job order", i, tbl.ID)
		}
	}
}

func TestRunnerCollectReportsEarliestError(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		{ID: "ok", Run: func(context.Context) (*Table, error) { return &Table{}, nil }},
		{ID: "bad", Run: func(context.Context) (*Table, error) { return nil, boom }},
		{ID: "worse", Run: func(context.Context) (*Table, error) { return nil, errors.New("later") }},
	}
	_, err := Runner{Workers: 2}.Collect(context.Background(), jobs)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Collect error = %v, want the earliest job's error", err)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error %q does not name the failing job", err)
	}
}

func TestRunnerStreamDeliversEveryOutcome(t *testing.T) {
	jobs := []Job{
		{ID: "a", Run: func(context.Context) (*Table, error) { return &Table{ID: "a"}, nil }},
		{ID: "b", Run: func(context.Context) (*Table, error) { return nil, errors.New("b failed") }},
		{ID: "c", Run: func(context.Context) (*Table, error) { return &Table{ID: "c"}, nil }},
	}
	got := map[string]bool{}
	for o := range (Runner{Workers: 3}).Stream(context.Background(), jobs) {
		got[o.ID] = true
		if o.ID == "b" && o.Err == nil {
			t.Error("job b should report its error")
		}
		if o.ID != "b" && o.Table == nil {
			t.Errorf("job %s should carry its table", o.ID)
		}
	}
	if len(got) != 3 {
		t.Fatalf("got outcomes %v, want all three", got)
	}
}

func TestStandardJobsMatchAll(t *testing.T) {
	jobs := StandardJobs()
	if len(jobs) != 10 {
		t.Fatalf("StandardJobs has %d entries, want 10 (E1..E10)", len(jobs))
	}
	wantOrder := []string{"E1", "E2", "E3", "E4/E5", "E6", "E6b", "E7", "E8", "E9", "E10"}
	for i, j := range jobs {
		if j.ID != wantOrder[i] {
			t.Fatalf("job %d is %q, want %q (DESIGN.md order)", i, j.ID, wantOrder[i])
		}
	}
}

func TestCorrespondenceSweep(t *testing.T) {
	sizes := []int{4, 5, 6}
	var rows []SweepRow
	for row := range (Runner{Workers: 2}).TopologySweep(context.Background(), family.Ring(), sizes) {
		if row.Err != nil {
			t.Fatalf("sweep r=%d: %v", row.R, row.Err)
		}
		rows = append(rows, row)
	}
	if len(rows) != len(sizes) {
		t.Fatalf("got %d rows, want %d", len(rows), len(sizes))
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].R < rows[b].R })
	for i, row := range rows {
		if row.R != sizes[i] {
			t.Fatalf("row %d is r=%d, want %d", i, row.R, sizes[i])
		}
		if !row.Corresponds {
			t.Errorf("M_%d should correspond to the cutoff instance M_%d", row.R, ring.CutoffSize)
		}
		wantStates := row.R * (1 << row.R)
		if row.States != wantStates {
			t.Errorf("r=%d has %d states, want r*2^r = %d", row.R, row.States, wantStates)
		}
	}
	tbl := SweepRowsTable(rows)
	if len(tbl.Rows) != len(sizes) {
		t.Fatalf("sweep table has %d rows", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "ring" {
		t.Errorf("sweep table rows must name their topology: %v", tbl.Rows[0])
	}
	if tbl.Rows[0][1] != "4" || tbl.Rows[2][1] != "6" {
		t.Errorf("sweep table not sorted by size: %v", tbl.Rows)
	}
}

func TestTopologySweepAcrossFamilies(t *testing.T) {
	for _, name := range []string{"star", "line", "tree", "torus"} {
		topo, ok := family.ByName(name)
		if !ok {
			t.Fatalf("unknown topology %s", name)
		}
		sizes := family.ValidSizesIn(topo, topo.CutoffSize()+1, topo.CutoffSize()+4)
		var rows []SweepRow
		for row := range (Runner{Workers: 2}).TopologySweep(context.Background(), topo, sizes) {
			if row.Err != nil {
				t.Fatalf("%s sweep n=%d: %v", name, row.R, row.Err)
			}
			rows = append(rows, row)
		}
		if len(rows) != len(sizes) {
			t.Fatalf("%s: got %d rows, want %d", name, len(rows), len(sizes))
		}
		for _, row := range rows {
			if row.Topology != name {
				t.Errorf("row for %s carries topology %q", name, row.Topology)
			}
			if !row.Corresponds {
				t.Errorf("%s: M_%d should correspond to the cutoff instance M_%d", name, row.R, topo.CutoffSize())
			}
			if row.States != 2*row.R {
				t.Errorf("%s: n=%d has %d states, want 2n = %d", name, row.R, row.States, 2*row.R)
			}
		}
	}
}

// TestTopologySweepSkipsInvalidSizes: a mixed size list keeps streaming —
// invalid sizes come back as error rows, valid sizes still get verdicts.
func TestTopologySweepSkipsInvalidSizes(t *testing.T) {
	topo, _ := family.ByName("torus")
	var okRows, errRows int
	for row := range (Runner{Workers: 2}).TopologySweep(context.Background(), topo, []int{6, 7, 8}) {
		if row.Err != nil {
			if row.R != 7 {
				t.Errorf("unexpected error row for n=%d: %v", row.R, row.Err)
			}
			errRows++
			continue
		}
		okRows++
	}
	if okRows != 2 || errRows != 1 {
		t.Errorf("got %d ok / %d err rows, want 2 / 1", okRows, errRows)
	}
}

func TestCrossTopologyTable(t *testing.T) {
	tbl, err := CrossTopology(context.Background(), 3)
	if err != nil {
		t.Fatalf("CrossTopology: %v", err)
	}
	topos := map[string]bool{}
	for _, row := range tbl.Rows {
		topos[row[0]] = true
		if row[4] != "yes" {
			t.Errorf("cutoff correspondence refuted for %v", row)
		}
	}
	for _, want := range []string{"ring", "star", "line", "tree", "torus"} {
		if !topos[want] {
			t.Errorf("E10 table misses topology %s", want)
		}
	}
}

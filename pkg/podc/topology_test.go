package podc_test

import (
	"context"
	"testing"

	"repro/pkg/podc"
)

func TestTopologyRegistry(t *testing.T) {
	names := podc.TopologyNames()
	want := []string{"ring", "star", "line", "tree", "torus", "torus3"}
	if len(names) != len(want) {
		t.Fatalf("TopologyNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("TopologyNames[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, name := range want {
		topo, ok := podc.TopologyByName(name)
		if !ok || topo.Name() != name || !topo.IsValid() {
			t.Fatalf("TopologyByName(%q) = %v, %v", name, topo, ok)
		}
	}
	if _, ok := podc.TopologyByName("hypercube"); ok {
		t.Error("unknown topology must not resolve")
	}
	if (podc.Topology{}).IsValid() {
		t.Error("the zero Topology must be invalid")
	}
}

// TestSessionCorrespondenceDispatch: Session.Correspondence decides the
// family it is given.
func TestSessionCorrespondenceDispatch(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession()

	// The ring's M_2 does not correspond to M_4 (the refuted Section 5
	// claim).
	ringCorr, err := s.Correspondence(ctx, podc.RingTopology(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ringCorr.Corresponds() {
		t.Error("ring M_2 ~ M_4 should be refuted")
	}

	// The star family's two-process instance does correspond: the
	// requestless protocol lacks the delayed-set structure that breaks the
	// ring's two-process cutoff.
	starCorr, err := s.Correspondence(ctx, podc.StarTopology(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !starCorr.Corresponds() {
		t.Errorf("star M_2 ~ M_4 should correspond; failing pairs %v", starCorr.FailingPairs())
	}

	// Invalid sizes surface as errors, not verdicts.
	if _, err := s.Correspondence(ctx, podc.TorusTopology(), 4, 7); err == nil {
		t.Error("odd torus size must be rejected")
	}
	if _, err := s.Correspondence(ctx, podc.RingTopology(), 5, 4); err == nil {
		t.Error("small > large must be rejected")
	}
}

// TestSessionRejectsInvalidTopologyInputs: every topology-taking Session
// entry point refuses the zero Topology and inverted sizes instead of
// returning a misleading verdict.
func TestSessionRejectsInvalidTopologyInputs(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession()
	var zero podc.Topology
	if _, err := s.Correspondence(ctx, zero, 3, 5); err == nil {
		t.Error("Correspondence must reject the zero Topology")
	}
	if _, err := s.TransferCertificate(ctx, zero, 3, 5); err == nil {
		t.Error("TransferCertificate must reject the zero Topology")
	}
	if _, err := s.Instance(ctx, zero, 3); err == nil {
		t.Error("Instance must reject the zero Topology")
	}
	if _, err := s.Verifier(ctx, zero, 3); err == nil {
		t.Error("Verifier must reject the zero Topology")
	}
	star, _ := podc.TopologyByName("star")
	if _, err := s.Correspondence(ctx, star, 6, 3); err == nil {
		t.Error("Correspondence must reject small > large")
	}
	if _, err := s.TransferCertificate(ctx, star, 6, 3); err == nil {
		t.Error("TransferCertificate must reject small > large")
	}
	for row := range s.SweepTopology(ctx, zero, []int{4, 5}) {
		if row.Err == nil {
			t.Error("SweepTopology over the zero Topology must stream error rows")
		}
	}
}

// TestVerifyFamilyOnTopology runs the paper's three-step methodology on a
// generalised family end to end: specs hold on the cutoff instance, the
// correspondences are established, and Theorem 5 covers the swept sizes.
func TestVerifyFamilyOnTopology(t *testing.T) {
	ctx := context.Background()
	tree := podc.TreeTopology()
	report, err := podc.VerifyFamily(ctx, tree.Family(), tree.Specs(),
		podc.WithSmallSize(tree.CutoffSize()),
		podc.WithCorrespondenceSizes(4, 5, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllHold() {
		t.Errorf("tree specs should hold on the cutoff instance:\n%s", report.Summary())
	}
	if got := len(report.VerifiedSizes()); got != 4 {
		t.Errorf("verified sizes %v, want all four", report.VerifiedSizes())
	}
	for _, res := range report.Results() {
		if !res.Transferable {
			t.Errorf("spec %s should be in the restricted fragment: %v", res.Name, res.RestrictionIssues)
		}
	}
}

// TestTopologyBuildAndSpecs pins the public instance shape: Θ(n) states
// for the token-circulation families, four specs each.
func TestTopologyBuildAndSpecs(t *testing.T) {
	for _, name := range []string{"star", "line", "tree", "torus"} {
		topo, _ := podc.TopologyByName(name)
		n := topo.CutoffSize() + 2
		if topo.ValidSize(n) != nil {
			n = topo.CutoffSize() + 4
		}
		m, err := topo.Build(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.NumStates() != 2*n {
			t.Errorf("%s[%d]: %d states, want 2n = %d", name, n, m.NumStates(), 2*n)
		}
		if got := len(topo.Specs()); got != 4 {
			t.Errorf("%s: %d specs, want 4", name, got)
		}
		if atoms := topo.Atoms(); len(atoms) != 1 || atoms[0] != podc.RingTokenAtom {
			t.Errorf("%s: atoms = %v, want the token atom", name, atoms)
		}
	}
}

// TestSessionTopologyCorrespondenceCached: correspondences are cached per
// (topology, small, large) — same-topology hits share, cross-topology
// requests do not collide.
func TestSessionTopologyCorrespondenceCached(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession(podc.WithWorkers(2))
	star, _ := podc.TopologyByName("star")
	line, _ := podc.TopologyByName("line")

	c1, err := s.Correspondence(ctx, star, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Correspondence(ctx, star, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("same-topology correspondence must be served from the cache")
	}
	c3, err := s.Correspondence(ctx, line, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Error("different topologies must not share cache entries")
	}
	if !c1.Corresponds() || !c3.Corresponds() {
		t.Error("both families' cutoff correspondences should hold")
	}

	// A topology resolved by name shares the constructor's cache entries.
	r1, err := s.Correspondence(ctx, podc.RingTopology(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ringTopo, _ := podc.TopologyByName("ring")
	r2, err := s.Correspondence(ctx, ringTopo, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("the ring resolved by name must share the RingTopology cache entry")
	}
}

// TestSessionSweepTopology streams a non-ring sweep through the session.
func TestSessionSweepTopology(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession(podc.WithWorkers(2))
	var rows []podc.SweepResult
	for row := range s.SweepTopology(ctx, podc.StarTopology(), []int{4, 5, 6}) {
		if row.Err != nil {
			t.Fatalf("n=%d: %v", row.R, row.Err)
		}
		if row.Topology != "star" {
			t.Errorf("row topology %q, want star", row.Topology)
		}
		if !row.Corresponds {
			t.Errorf("star n=%d should correspond", row.R)
		}
		rows = append(rows, row)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	tbl := podc.SweepResultsTable(rows)
	if len(tbl.Rows) != 3 || tbl.Rows[0][0] != "star" {
		t.Errorf("sweep table should carry the topology column: %v", tbl.Rows)
	}
}

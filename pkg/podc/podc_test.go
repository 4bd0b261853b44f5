package podc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/pkg/podc"
)

func buildLight(t *testing.T) *podc.Structure {
	t.Helper()
	b := podc.NewBuilder("light")
	g := b.AddState(podc.P("green"))
	y := b.AddState(podc.P("yellow"))
	r := b.AddState(podc.P("red"))
	for _, e := range [][2]podc.State{{g, y}, {y, r}, {r, g}} {
		if err := b.AddTransition(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetInitial(g); err != nil {
		t.Fatal(err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuilderVerifierRoundTrip(t *testing.T) {
	ctx := context.Background()
	m := buildLight(t)
	if m.NumStates() != 3 || m.NumTransitions() != 3 || !m.IsTotal() {
		t.Fatalf("unexpected shape: %s", m.Summary())
	}
	v, err := podc.NewVerifier(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	for text, want := range map[string]bool{
		"AG (yellow -> AX red)": true,
		"AG EF green":           true,
		"AG red":                false,
	} {
		holds, err := v.Check(ctx, podc.MustParseFormula(text))
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if holds != want {
			t.Errorf("%s = %v, want %v", text, holds, want)
		}
	}
	cx, err := v.Counterexample(ctx, podc.MustParseFormula("AG green"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cx.States) < 2 {
		t.Errorf("counterexample too short: %v", cx)
	}
}

func TestStructureTextAndJSONRoundTrip(t *testing.T) {
	m := buildLight(t)
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := podc.ParseStructure(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.NumStates() != m.NumStates() || decoded.Initial() != m.Initial() {
		t.Errorf("text round trip changed the structure: %s vs %s", decoded.Summary(), m.Summary())
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := podc.StructureFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON.NumTransitions() != m.NumTransitions() {
		t.Errorf("JSON round trip changed the transitions")
	}
}

func TestCorrespondStutteredCopy(t *testing.T) {
	ctx := context.Background()
	m := buildLight(t)
	// Stuttered copy: two yellow phases.
	b := podc.NewBuilder("slow")
	g := b.AddState(podc.P("green"))
	y1 := b.AddState(podc.P("yellow"))
	y2 := b.AddState(podc.P("yellow"))
	r := b.AddState(podc.P("red"))
	for _, e := range [][2]podc.State{{g, y1}, {y1, y2}, {y2, r}, {r, g}} {
		if err := b.AddTransition(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetInitial(g); err != nil {
		t.Fatal(err)
	}
	slow, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	corr, err := podc.Correspond(ctx, m, slow)
	if err != nil {
		t.Fatal(err)
	}
	if !corr.Corresponds() {
		t.Fatal("the stuttered copy must correspond")
	}
	if corr.MaxDegree() < 1 {
		t.Errorf("stuttering should need a positive degree, got %d", corr.MaxDegree())
	}
	if d, ok := corr.Degree(m.Initial(), slow.Initial()); !ok {
		t.Errorf("initial pair missing (degree %d)", d)
	}
	if len(corr.Pairs()) != corr.Size() {
		t.Errorf("Pairs/Size disagree")
	}
}

func TestFormulaClassification(t *testing.T) {
	f := podc.MustParseFormula("forall i . AG (d[i] -> AF c[i])")
	if !f.IsRestricted() || !f.IsClosed() {
		t.Errorf("liveness should be closed restricted ICTL*")
	}
	x := podc.MustParseFormula("AG (p -> AX q)")
	if x.IsRestricted() {
		t.Errorf("nexttime formulas are not restricted")
	}
	if issues := x.RestrictionIssues(); len(issues) == 0 {
		t.Errorf("expected restriction issues for %s", x)
	}
	var zero podc.Formula
	if zero.IsValid() {
		t.Error("zero formula must be invalid")
	}
	ctx := context.Background()
	v, err := podc.NewVerifier(ctx, buildLight(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Check(ctx, zero); err == nil {
		t.Error("checking the zero formula must fail")
	}
}

func TestRingSurfaceAndTransfer(t *testing.T) {
	ctx := context.Background()
	s := podc.NewSession()
	ringTopo := podc.RingTopology()
	corr, err := s.Correspondence(ctx, ringTopo, podc.RingCutoffSize, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !corr.Corresponds() {
		t.Fatal("the corrected cutoff correspondence M_3 ~ M_5 must hold")
	}
	if ev, err := s.CorrespondenceEvidence(ctx, ringTopo, podc.RingCutoffSize, 5); err != nil || ev != nil {
		t.Errorf("a holding correspondence carries evidence: %s (err %v)", ev, err)
	}
	// The paper's two-process cutoff fails (the reproduction finding).
	refuted, err := s.Correspondence(ctx, ringTopo, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if refuted.Corresponds() {
		t.Fatal("M_2 must NOT correspond to M_5")
	}
	if len(refuted.FailingPairs()) == 0 {
		t.Error("expected failing index pairs for the refuted claim")
	}
	if ev, err := s.CorrespondenceEvidence(ctx, ringTopo, 2, 5); err != nil || ev == nil || !ev.Confirmed {
		t.Errorf("the refuted claim carries no confirmed evidence: %s (err %v)", ev, err)
	}

	cert, err := podc.BuildTransferCertificate(ctx, podc.RingTopology().Family(), podc.RingCutoffSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cert)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := podc.TransferCertificateFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Validate(podc.RingTopology().Family()); err != nil {
		t.Errorf("decoded certificate fails validation: %v", err)
	}
	if _, err := podc.BuildTransferCertificate(ctx, podc.RingTopology().Family(), 2, 4); err == nil {
		t.Error("no certificate may exist for the refuted two-process cutoff")
	}
}

func TestVerifyFamilyTokenRing(t *testing.T) {
	ctx := context.Background()
	report, err := podc.VerifyFamily(ctx, podc.RingTopology().Family(), podc.RingProperties(),
		podc.WithSmallSize(podc.RingCutoffSize),
		podc.WithCorrespondenceSizes(4, 5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllHold() {
		t.Error("the Section 5 properties must hold on M_3")
	}
	sizes := report.VerifiedSizes()
	if len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 5 {
		t.Errorf("VerifiedSizes = %v, want [4 5]", sizes)
	}
	for _, res := range report.Results() {
		if !res.Transferable {
			t.Errorf("property %s should be transferable", res.Name)
		}
	}
	if !strings.Contains(report.Summary(), "family ring:") {
		t.Errorf("summary should name the family: %s", report.Summary())
	}
}

func TestVerifierWithMinimize(t *testing.T) {
	ctx := context.Background()
	// The stuttered light minimizes: the two yellow states fuse.
	b := podc.NewBuilder("slow")
	g := b.AddState(podc.P("green"))
	y1 := b.AddState(podc.P("yellow"))
	y2 := b.AddState(podc.P("yellow"))
	r := b.AddState(podc.P("red"))
	for _, e := range [][2]podc.State{{g, y1}, {y1, y2}, {y2, r}, {r, g}} {
		if err := b.AddTransition(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetInitial(g); err != nil {
		t.Fatal(err)
	}
	slow, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := podc.NewVerifier(ctx, slow, podc.WithMinimize())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Minimized() {
		t.Fatal("the stuttered light should minimize")
	}
	if v.Structure().NumStates() >= slow.NumStates() {
		t.Errorf("quotient has %d states, original %d", v.Structure().NumStates(), slow.NumStates())
	}
	holds, err := v.Check(ctx, podc.MustParseFormula("AG (yellow -> AF red)"))
	if err != nil || !holds {
		t.Errorf("CTL*-X truth must be preserved on the quotient: %v %v", holds, err)
	}
}

func TestCancelledVerifier(t *testing.T) {
	m := buildLight(t)
	ctx, cancel := context.WithCancel(context.Background())
	v, err := podc.NewVerifier(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := v.Check(ctx, podc.MustParseFormula("AG EF green")); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestNetworkBuild(t *testing.T) {
	net := &podc.Network{
		Template: &podc.ProcessTemplate{
			Name:    "bit",
			States:  []string{"off", "on"},
			Initial: "off",
			Labels:  map[string][]string{"on": {"on"}},
		},
		N: 3,
		Rules: []podc.NetworkRule{{
			Name:  "flip",
			Guard: func(v podc.NetworkView, i int) bool { return v.Local(i) == "off" },
			Apply: func(v podc.NetworkView, i int) podc.NetworkUpdate {
				return podc.NetworkUpdate{Locals: map[int]string{i: "on"}}
			},
		}},
	}
	m, err := net.Build("bits[3]")
	if err != nil {
		t.Fatal(err)
	}
	// 2^3 global states, with the all-on deadlock made total by the builder?
	// BuildKripke adds self-loops only via MakeTotal inside; just check the
	// structure is well-formed and has 8 states.
	if m.NumStates() != 8 {
		t.Errorf("3 bits should give 8 reachable states, got %d", m.NumStates())
	}
	ctx := context.Background()
	v, err := podc.NewVerifier(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	holds, err := v.Check(ctx, podc.MustParseFormula("forall i . EF on[i]"))
	if err != nil || !holds {
		t.Errorf("every bit can turn on: %v %v", holds, err)
	}
}

func TestRingLocalCheckReproducesFinding(t *testing.T) {
	ctx := context.Background()
	rep, err := podc.RingLocalCheck(ctx, podc.RingPaperRelation, 200, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Error("the printed Section 5 relation must show violations at r=200")
	}
	if rep.FirstViolation == "" {
		t.Error("expected a first-violation example")
	}
	// Cancellation propagates.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := podc.RingLocalCheck(cctx, podc.RingPaperRelation, 200, 20, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestPaperFigures(t *testing.T) {
	ctx := context.Background()
	left, right, err := podc.PaperFig31()
	if err != nil {
		t.Fatal(err)
	}
	corr, err := podc.Correspond(ctx, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if !corr.Corresponds() || corr.MaxDegree() != 2 {
		t.Errorf("Fig. 3.1 should correspond with max degree 2, got %v / %d", corr.Corresponds(), corr.MaxDegree())
	}
	if f := podc.CountingFormula(2); f.IsRestricted() {
		t.Error("the depth-2 counting formula must be outside the restricted fragment")
	}
	if fs := podc.CountingRestrictedFormulas(); len(fs) == 0 {
		t.Error("expected restricted example formulas")
	}
}

func TestCorrespondDeadline(t *testing.T) {
	s := podc.NewSession()
	for _, n := range []int{3, 8} {
		if _, err := s.Instance(context.Background(), podc.RingTopology(), n); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := s.Correspondence(ctx, podc.RingTopology(), 3, 8); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

package podc_test

// The examples in this file are the documented snippets of the package:
// go test executes them and asserts their output, so the documentation
// cannot drift from the code.

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/podc"
)

// ExampleNetwork builds a family member with the generic process-network
// substrate: three clients competing for one shared resource, composed
// from a template and guarded-command rules.
func ExampleNetwork() {
	net := &podc.Network{
		Template: &podc.ProcessTemplate{
			Name:    "client",
			States:  []string{"idle", "using"},
			Initial: "idle",
			Labels:  map[string][]string{"idle": {"idle"}, "using": {"use"}},
		},
		N: 3,
		Rules: []podc.NetworkRule{
			{
				Name: "acquire",
				Guard: func(v podc.NetworkView, i int) bool {
					return v.Local(i) == "idle" && v.CountLocal("using") == 0
				},
				Apply: func(v podc.NetworkView, i int) podc.NetworkUpdate {
					return podc.NetworkUpdate{Locals: map[int]string{i: "using"}}
				},
			},
			{
				Name:  "release",
				Guard: func(v podc.NetworkView, i int) bool { return v.Local(i) == "using" },
				Apply: func(v podc.NetworkView, i int) podc.NetworkUpdate {
					return podc.NetworkUpdate{Locals: map[int]string{i: "idle"}}
				},
			},
		},
	}
	m, err := net.Build(context.Background(), "pool[3]")
	if err != nil {
		log.Fatal(err)
	}
	v, err := podc.NewVerifier(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}
	holds, err := v.Check(context.Background(), podc.MustParseFormula("forall i . AG (use[i] -> (one use))"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("states: %d\n", m.NumStates())
	fmt.Printf("mutual exclusion holds: %v\n", holds)
	// Output:
	// states: 4
	// mutual exclusion holds: true
}

// ExampleSession_Correspondence decides (and caches) a topology's cutoff
// correspondence through a Session — the serving-side entry point the HTTP
// service answers /v1/correspond from.
func ExampleSession_Correspondence() {
	ctx := context.Background()
	session := podc.NewSession(podc.WithWorkers(2))
	star, _ := podc.TopologyByName("star")
	corr, err := session.Correspondence(ctx, star, star.CutoffSize(), 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("star M_%d ~ M_6 corresponds: %v\n", star.CutoffSize(), corr.Corresponds())
	fmt.Printf("index pairs compared: %d\n", len(corr.IndexRelation()))
	// Output:
	// star M_3 ~ M_6 corresponds: true
	// index pairs compared: 6
}

// ExampleTopology runs the paper's three-step methodology on a non-ring
// family: model check the cutoff instance, establish the correspondences,
// and conclude by Theorem 5 for every verified size.
func ExampleTopology() {
	ctx := context.Background()
	torus := podc.TorusTopology()
	report, err := podc.VerifyFamily(ctx, torus.Family(), torus.Specs(),
		podc.WithSmallSize(torus.CutoffSize()),
		podc.WithCorrespondenceSizes(6, 8, 10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology %s, cutoff %d\n", torus.Name(), torus.CutoffSize())
	fmt.Printf("all specs hold on the cutoff instance: %v\n", report.AllHold())
	fmt.Printf("sizes covered by Theorem 5: %v\n", report.VerifiedSizes())
	// Output:
	// topology torus, cutoff 4
	// all specs hold on the cutoff instance: true
	// sizes covered by Theorem 5: [6 8 10]
}

// ExampleSession_Correspondence_cutoffs contrasts two families at the same
// sizes: the ring's two-process instance is refuted (the reproduction's
// headline finding), while the requestless line family genuinely has a
// two-process cutoff.
func ExampleSession_Correspondence_cutoffs() {
	ctx := context.Background()
	session := podc.NewSession()
	ringCorr, err := session.Correspondence(ctx, podc.RingTopology(), 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	lineCorr, err := session.Correspondence(ctx, podc.LineTopology(), 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ring M_2 ~ M_4: %v\n", ringCorr.Corresponds())
	fmt.Printf("line M_2 ~ M_4: %v\n", lineCorr.Corresponds())
	// Output:
	// ring M_2 ~ M_4: false
	// line M_2 ~ M_4: true
}

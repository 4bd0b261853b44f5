// Command tokenring reproduces the paper's Section 5 case study end to end
// through the public API:
//
//  1. run the paper's verification methodology for the token-ring family
//     (model check the cutoff instance, establish the correspondences,
//     transfer by Theorem 5) with podc.VerifyFamily,
//  2. reproduce both halves of the reproduction finding (the two-process
//     cutoff fails; the three-process cutoff works), and
//  3. check the Appendix's hand-built relation locally at a 1000-process
//     ring — a structure with 1000·2^1000 states that is never built.
//
// Run it with:
//
//	go run ./examples/tokenring
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/podc"
)

func main() {
	ctx := context.Background()

	// Step 1: the paper's workflow for the whole family, starting from the
	// corrected cutoff instance (three processes).
	specs := append(podc.RingInvariants(), podc.RingProperties()...)
	report, err := podc.VerifyFamily(ctx, podc.RingTopology().Family(), specs,
		podc.WithSmallSize(podc.RingCutoffSize),
		podc.WithCorrespondenceSizes(4, 5, 6, 7),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.Summary())
	fmt.Println()

	// Step 2: the reproduction finding about the paper's own cutoff of two.
	two, err := podc.BuildRing(2)
	if err != nil {
		log.Fatal(err)
	}
	three, err := podc.BuildRing(3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := podc.RingCorrespondence(ctx, two, three)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Paper's claim: M_2 indexed-corresponds to M_3?  decision procedure says: %v\n", res.Corresponds())

	chi := podc.RingDistinguishingFormula()
	v2, err := podc.NewVerifier(ctx, two.Structure())
	if err != nil {
		log.Fatal(err)
	}
	h2, err := v2.Check(ctx, chi)
	if err != nil {
		log.Fatal(err)
	}
	v3, err := podc.NewVerifier(ctx, three.Structure())
	if err != nil {
		log.Fatal(err)
	}
	h3, err := v3.Check(ctx, chi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Witnessing restricted ICTL* formula:\n  %s\n  holds on M_2: %v   holds on M_3: %v\n\n", chi, h2, h3)

	// Step 3: local clause checking of the Appendix relation at r = 1000.
	const r = 1000
	fmt.Printf("Checking the Section 5 / Appendix relation locally at a %d-process ring (never built):\n", r)
	for _, variant := range []podc.RingRelationVariant{podc.RingPaperRelation, podc.RingCorrectedRelation} {
		rep, err := podc.RingLocalCheck(ctx, variant, r, 15, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s relation: %d clause violations across %d sampled states\n",
			rep.Variant, rep.Violations, rep.SampledStates)
	}
	fmt.Println("\n=> the Appendix relation fails even at r=1000, while the three-process cutoff established")
	fmt.Printf("   above transfers the four Section 5 properties to every ring size, including %d.\n", r)
}

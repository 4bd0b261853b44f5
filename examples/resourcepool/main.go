// Command resourcepool applies the library to a second family of identical
// processes, built with the generic process-network substrate rather than
// the hand-coded ring: n clients compete for a single shared resource that
// is granted nondeterministically to one of the waiting clients and must be
// released before the next grant.  The example demonstrates that the paper's
// methodology — verify a small instance, establish the indexed
// correspondence, conclude for every size — is not specific to the token
// ring.
//
// Run it with:
//
//	go run ./examples/resourcepool
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/podc"
)

// buildPool returns the Kripke structure of the n-client resource pool,
// built under ctx.  Each client is idle, waiting or using; any waiting
// client may be granted the resource when it is free, and must release it
// before the next grant.
func buildPool(ctx context.Context, n int) (*podc.Structure, error) {
	net := &podc.Network{
		Template: &podc.ProcessTemplate{
			Name:    "client",
			States:  []string{"idle", "waiting", "using"},
			Initial: "idle",
			Labels: map[string][]string{
				"idle":    {"idle"},
				"waiting": {"wait"},
				"using":   {"use"},
			},
		},
		N: n,
		Rules: []podc.NetworkRule{
			{
				Name:  "request",
				Guard: func(v podc.NetworkView, i int) bool { return v.Local(i) == "idle" },
				Apply: func(v podc.NetworkView, i int) podc.NetworkUpdate {
					return podc.NetworkUpdate{Locals: map[int]string{i: "waiting"}}
				},
			},
			{
				Name: "grant",
				Guard: func(v podc.NetworkView, i int) bool {
					return v.Local(i) == "waiting" && v.CountLocal("using") == 0
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
	return net.Build(ctx, fmt.Sprintf("pool[%d]", n))
}

func main() {
	ctx := context.Background()
	specs := []podc.Spec{
		{Name: "mutual-exclusion", Formula: podc.MustParseFormula("forall i . AG (use[i] -> (one use))")},
		{Name: "use-only-after-waiting", Formula: podc.MustParseFormula("forall i . A (!use[i] W wait[i])")},
		{Name: "requests-are-stable", Formula: podc.MustParseFormula("forall i . AG (wait[i] -> A[wait[i] W use[i]])")},
		{Name: "service-always-possible", Formula: podc.MustParseFormula("forall i . AG (wait[i] -> EF use[i])")},
	}
	for _, s := range specs {
		fmt.Printf("spec %-24s restricted ICTL*: %v\n", s.Name, s.Formula.IsRestricted())
	}
	fmt.Println()

	family := &podc.FamilyFunc{
		FamilyName: "resource-pool",
		BuildFunc:  func(n int) (*podc.Structure, error) { return buildPool(ctx, n) },
		Indices: func(small, n int) []podc.IndexPair {
			// All clients are fully interchangeable, so pair equal positions
			// first and fold the tail onto the last small client.
			var out []podc.IndexPair
			for i := 1; i <= small; i++ {
				out = append(out, podc.IndexPair{I: i, I2: i})
			}
			for j := small + 1; j <= n; j++ {
				out = append(out, podc.IndexPair{I: small, I2: j})
			}
			return out
		},
		AtomNames: []string{"use"},
	}

	// Find the smallest cutoff from which every larger pool corresponds.
	const largest = 6
	cutoff := -1
	for small := 1; small <= 4 && cutoff < 0; small++ {
		report, err := podc.VerifyFamily(ctx, family, specs,
			podc.WithSmallSize(small),
			podc.WithCorrespondenceSizes(rangeInts(small+1, largest)...),
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- trying cutoff %d ---\n%s\n", small, report.Summary())
		if len(report.VerifiedSizes()) == largest-small && report.AllHold() {
			cutoff = small
		}
	}
	if cutoff < 0 {
		fmt.Println("no cutoff up to 4 represents the whole family for the sizes checked")
		return
	}
	fmt.Printf("=> the %d-client pool represents every pool checked (up to %d clients);\n", cutoff, largest)
	fmt.Println("   by Theorem 5 the four specifications hold for those sizes as well.")
}

func rangeInts(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

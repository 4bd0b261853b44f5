// Command ringverify runs the paper's Section 5 verification for the
// token-ring mutual exclusion protocol at a chosen ring size, and optionally
// reproduces the correspondence analysis against the cutoff instance and the
// local refutation of the Appendix relation at very large rings.
//
// Usage:
//
//	ringverify -r 5                 # build M_5, check invariants + properties
//	ringverify -r 6 -correspond     # also decide the correspondence with M_3 (and M_2)
//	ringverify -r 1000 -local 50    # local clause checking only (no state graph)
//	ringverify -r 4 -buggy          # show the counterexample on the broken variant
//
// Exit status 0 when every checked property holds, 1 otherwise, 2 on errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/pkg/podc"
)

func main() {
	os.Exit(run())
}

func run() int {
	r := flag.Int("r", 4, "number of processes in the ring")
	correspond := flag.Bool("correspond", false, "decide the indexed correspondence with the cutoff instance M_3 and with M_2")
	local := flag.Int("local", 0, "if > 0, skip building M_r and locally check the Appendix relation at this many sampled states")
	buggy := flag.Bool("buggy", false, "verify the deliberately broken protocol variant instead (shows a counterexample)")
	seed := flag.Int64("seed", 1, "random seed for local sampling")
	flag.Parse()
	ctx := context.Background()

	if *local > 0 {
		return runLocal(ctx, *r, *local, *seed)
	}

	sess := podc.NewSession()
	m, err := buildInstance(ctx, sess, *r, *buggy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringverify:", err)
		return 2
	}
	fmt.Println(m.Summary())

	verifier, err := podc.NewVerifier(ctx, m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringverify:", err)
		return 2
	}
	allHold := true
	for _, spec := range append(podc.RingInvariants(), podc.RingProperties()...) {
		holds, err := verifier.Check(ctx, spec.Formula)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ringverify:", err)
			return 2
		}
		status := "holds"
		if !holds {
			status = "FAILS"
			allHold = false
		}
		fmt.Printf("  %-6s %-28s %s\n", status, spec.Name, spec.Formula)
		if !holds {
			// Instantiate the indexed quantifiers so the counterexample
			// machinery (which handles A-rooted CTL) can be applied.
			shape := spec.Formula
			if inst, err := spec.Formula.Instantiate(m.IndexValues()); err == nil {
				shape = inst
			}
			if cx, err := verifier.Counterexample(ctx, shape); err == nil {
				fmt.Println("         counterexample:", cx)
			}
		}
	}

	// With -correspond the loop below already decides correct-vs-buggy (the
	// built instance IS the buggy one) and prints its evidence; the
	// dedicated buggy report would repeat that decision verbatim.
	if *buggy && !*correspond {
		fmt.Println()
		runBuggyEvidence(ctx, sess, m, *r)
	}
	if *correspond {
		fmt.Println()
		runCorrespondence(ctx, sess, m, verifier, *r, *buggy)
	}
	if allHold {
		return 0
	}
	return 1
}

// runBuggyEvidence decides the correspondence between the correct cutoff
// ring and the buggy instance of size r and prints the machine-extracted,
// replay-confirmed distinguishing formula — the evidence that the buggy
// family genuinely differs from the correct one, not just a failed spec.
func runBuggyEvidence(ctx context.Context, sess *podc.Session, buggy *podc.Structure, r int) {
	small := podc.RingCutoffSize
	if r < small {
		small = 2
	}
	_, ev, err := correspond(ctx, sess, small, buggy, r, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringverify:", err)
		return
	}
	if ev == nil {
		fmt.Printf("correct M_%d and buggy M_%d indexed-correspond (unexpected)\n", small, r)
		return
	}
	fmt.Printf("correct M_%d and buggy M_%d DO NOT indexed-correspond\n", small, r)
	printEvidence(ev)
}

// correspond decides whether the correct ring M_small indexed-corresponds
// to m, the ring instance of size r, and returns the replay-confirmed
// evidence when it does not.  The correct ring is decided through the
// session; the buggy variant, which no topology serves, through
// IndexedCorrespond over the ring's index relation.
func correspond(ctx context.Context, sess *podc.Session, small int, m *podc.Structure, r int, buggy bool) (bool, *podc.Evidence, error) {
	topo := podc.RingTopology()
	if !buggy {
		res, err := sess.Correspondence(ctx, topo, small, r)
		if err != nil {
			return false, nil, err
		}
		ev, err := sess.CorrespondenceEvidence(ctx, topo, small, r)
		return res.Corresponds(), ev, err
	}
	correct, err := sess.Instance(ctx, topo, small)
	if err != nil {
		return false, nil, err
	}
	res, err := podc.IndexedCorrespond(ctx, correct, m, topo.IndexRelation(small, r),
		podc.WithAtoms(podc.RingTokenAtom), podc.WithReachableOnly(), podc.WithEvidence())
	if err != nil {
		return false, nil, err
	}
	return res.Corresponds(), res.Evidence(), nil
}

// printEvidence renders a correspondence evidence object.
func printEvidence(ev *podc.Evidence) {
	fmt.Printf("  failing pair:    (i=%d, i'=%d)\n", ev.Pair.I, ev.Pair.I2)
	fmt.Printf("  reason:          %s\n", ev.Reason)
	if ev.FormulaText != "" {
		fmt.Printf("  distinguishing:  %s\n", ev.FormulaText)
		fmt.Printf("  replay:          confirmed=%v (true on the small side's reduction, false on the large side's)\n", ev.Confirmed)
	}
	if len(ev.GamePath) > 0 {
		fmt.Printf("  game path (%s): %v", ev.GameSide, ev.GamePath)
		if ev.GameLoop >= 0 {
			fmt.Printf(" (loops back to position %d)", ev.GameLoop)
		}
		fmt.Println()
	}
}

// buildInstance returns the ring instance of size r: the buggy variant
// built directly, the correct ring from the session.
func buildInstance(ctx context.Context, sess *podc.Session, r int, buggy bool) (*podc.Structure, error) {
	if buggy {
		return podc.BuildBuggyRing(r)
	}
	return sess.Instance(ctx, podc.RingTopology(), r)
}

func runCorrespondence(ctx context.Context, sess *podc.Session, m *podc.Structure, verifier *podc.Verifier, r int, buggy bool) {
	for _, small := range []int{2, podc.RingCutoffSize} {
		if small > r {
			continue
		}
		corresponds, ev, err := correspond(ctx, sess, small, m, r, buggy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ringverify:", err)
			return
		}
		verdict := "DO NOT indexed-correspond"
		if corresponds {
			verdict = "indexed-correspond (Theorem 5 transfers restricted ICTL*)"
		}
		fmt.Printf("M_%d and M_%d %s\n", small, r, verdict)
		if ev != nil {
			printEvidence(ev)
		}
	}
	chi := podc.RingDistinguishingFormula()
	if holds, err := verifier.Check(ctx, chi); err == nil {
		fmt.Printf("distinguishing formula %s\n  holds on M_%d: %v (it is false on M_2)\n", chi, r, holds)
	}
}

func runLocal(ctx context.Context, r, samples int, seed int64) int {
	fmt.Printf("local clause checking of the Section 5 relation against a %d-process ring (state graph never built)\n", r)
	violationsFound := false
	for _, variant := range []podc.RingRelationVariant{podc.RingPaperRelation, podc.RingCorrectedRelation} {
		rep, err := podc.RingLocalCheck(ctx, variant, r, samples, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ringverify:", err)
			return 2
		}
		fmt.Printf("  %-9s relation: %d violations over %d sampled states\n", rep.Variant, rep.Violations, rep.SampledStates)
		if rep.FirstViolation != "" {
			fmt.Println("    e.g.", rep.FirstViolation)
			violationsFound = true
		}
	}
	if violationsFound {
		fmt.Println("=> the Appendix relation is not a correspondence at this ring size either;")
		fmt.Println("   use the three-process cutoff result instead (see EXPERIMENTS.md, E6).")
		return 1
	}
	return 0
}

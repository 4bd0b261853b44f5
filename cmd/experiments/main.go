// Command experiments regenerates every table and figure of the
// reproduction (the data recorded in EXPERIMENTS.md) on a worker pool, and
// runs ring-size sweeps through the partition-refinement correspondence
// engine.  It is a thin front end over podc.Session, the same streaming
// machinery the HTTP service serves.
//
// Usage:
//
//	experiments                  # run E1..E10 on the pool, print in order
//	experiments -markdown        # print the tables as markdown (EXPERIMENTS.md form)
//	experiments -json            # print the tables as JSON (the HTTP service's shape)
//	experiments -only E6         # run a single experiment by identifier
//	experiments -stream          # print each table the moment it finishes
//	experiments -workers 2       # cap the worker pool
//	experiments -sweep 4,6,8,10  # decide each topology's cutoff correspondence per size
//	experiments -sweep default   # the default battery: sizes 4..20, up to the 21M-state r=20 ring
//	experiments -sweep 6,8 -topologies star,torus   # sweep selected topologies only
//	experiments -sweep default -build-workers 4     # cap the construction pool
//	experiments -sweep default -store .verdicts     # replay/record verdicts across runs
//	experiments -sweep default -cpuprofile sweep.prof   # profile the run
//
// A sweep covers every built-in topology (ring, star, line, tree, torus,
// torus3) by default; sizes a topology cannot instantiate (e.g. odd sizes
// of the 2-row torus) are skipped for that topology with a note.  Instances
// are constructed by the parallel packed-BFS engine (byte-identical to the
// sequential builds); sizes whose spaces exceed the decide budget come back
// as build-only rows carrying the raw-space counts, the construction
// throughput and the symmetry quotient's orbit count.
//
// The -cpuprofile and -memprofile flags write pprof profiles of whatever
// workload was selected, so perf work on the engines needs no code edits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/pkg/podc"
)

func main() { os.Exit(run()) }

// run is main behind an exit code, so the profile-flushing defers execute
// before the process exits.
func run() int {
	markdown := flag.Bool("markdown", false, "render the tables as markdown")
	jsonOut := flag.Bool("json", false, "render the tables as JSON")
	only := flag.String("only", "", "run only the experiment with this identifier (e.g. E1, E6, E7)")
	stream := flag.Bool("stream", false, "print each table as soon as its experiment finishes (completion order)")
	workers := flag.Int("workers", 0, "worker pool size for experiment jobs and index-pair pools; >1 also fans the model checker's word-at-a-time passes across the pool (0 = one per CPU)")
	buildWorkers := flag.Int("build-workers", 0, "parallel packed-BFS construction pool size for sweeps and instance builds (0 = one per CPU)")
	sweep := flag.String("sweep", "", `comma separated sizes ("default" for the standard battery): decide each topology's cutoff correspondence for each size, streaming results`)
	topologies := flag.String("topologies", "all", `comma separated topologies to sweep ("all" or a subset of `+strings.Join(podc.TopologyNames(), ",")+`)`)
	storeDir := flag.String("store", "", "persistent verdict store directory: replay already-decided correspondences from it and record fresh ones (created if needed)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile of the run to this file")
	flag.Parse()
	ctx := context.Background()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	sessionOpts := []podc.Option{podc.WithWorkers(*workers), podc.WithParallelBuild(*buildWorkers)}
	if *storeDir != "" {
		sessionOpts = append(sessionOpts, podc.WithStore(*storeDir))
	}
	session := podc.NewSession(sessionOpts...)
	render := func(tbl *podc.Table) {
		switch {
		case *jsonOut:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(tbl); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		case *markdown:
			fmt.Println(tbl.Markdown())
		default:
			fmt.Println(tbl.Text())
		}
	}

	if *sweep != "" {
		return runSweep(ctx, session, *sweep, *topologies, *jsonOut, render)
	}

	var ids []string
	if *only != "" {
		ids = []string{*only}
	}

	if *stream {
		failed := false
		for o := range session.Experiments(ctx, ids) {
			if o.Err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", o.ID, o.Err)
				failed = true
				continue
			}
			if !*jsonOut {
				fmt.Printf("# %s finished in %s\n", o.ID, o.Elapsed.Round(1000))
			}
			render(o.Table)
		}
		if failed {
			return 2
		}
		return 0
	}

	// Collect in battery order: stream everything, then print sorted.
	tables := map[string]*podc.Table{}
	for o := range session.Experiments(ctx, ids) {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", o.ID, o.Err)
			return 2
		}
		tables[o.ID] = o.Table
	}
	order := ids
	if len(order) == 0 {
		order = podc.ExperimentIDs()
	}
	for _, id := range order {
		if tbl, ok := tables[id]; ok {
			render(tbl)
		}
	}
	return 0
}

// runSweep decides the cutoff correspondence of every selected topology
// for every requested size, printing each verdict as it streams in and a
// combined summary table at the end.
func runSweep(ctx context.Context, session *podc.Session, spec, topoSpec string, jsonOut bool, render func(*podc.Table)) int {
	var sizes []int
	if strings.TrimSpace(spec) == "default" {
		sizes = podc.DefaultSweepSizes()
		spec = ""
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.Atoi(part)
		if err != nil || r < 2 {
			fmt.Fprintf(os.Stderr, "experiments: bad size %q\n", part)
			return 2
		}
		sizes = append(sizes, r)
	}
	if len(sizes) == 0 {
		fmt.Fprintln(os.Stderr, "experiments: -sweep needs at least one size")
		return 2
	}
	var topos []podc.Topology
	if strings.TrimSpace(topoSpec) == "all" || strings.TrimSpace(topoSpec) == "" {
		topos = podc.Topologies()
	} else {
		for _, name := range strings.Split(topoSpec, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			topo, ok := podc.TopologyByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown topology %q (have %s)\n",
					name, strings.Join(podc.TopologyNames(), ", "))
				return 2
			}
			topos = append(topos, topo)
		}
	}
	failed := false
	enc := json.NewEncoder(os.Stdout)
	var rows []podc.SweepResult
	for _, topo := range topos {
		var valid []int
		for _, n := range sizes {
			if err := topo.ValidSize(n); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: skipping n=%d: %v\n", topo.Name(), n, err)
				continue
			}
			valid = append(valid, n)
		}
		if len(valid) == 0 {
			fmt.Fprintf(os.Stderr, "experiments: %s: no valid sizes in the sweep\n", topo.Name())
			continue
		}
		for row := range session.SweepTopology(ctx, topo, valid) {
			if row.Err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s n=%d: %v\n", row.Topology, row.R, row.Err)
				failed = true
				continue
			}
			rows = append(rows, row)
			if jsonOut {
				if err := enc.Encode(row); err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
				}
				continue
			}
			verdict := fmt.Sprintf("%v", row.Corresponds)
			if row.BuildOnly {
				verdict = fmt.Sprintf("build-only (orbits=%d)", row.QuotientStates)
			}
			note := ""
			if row.CacheHit {
				note = "  [replayed from store]"
			}
			fmt.Printf("%-6s n=%-4d states=%-8d corresponds=%-5s max degree=%-3d build=%-12s decide=%s%s\n",
				row.Topology, row.R, row.States, verdict, row.MaxDegree, row.Build.Round(1000), row.Decide.Round(1000), note)
		}
	}
	if failed {
		return 2
	}
	if len(rows) == 0 {
		// Every (topology, size) combination was skipped or empty: a sweep
		// that decided nothing is a usage error, not a success.
		fmt.Fprintln(os.Stderr, "experiments: the sweep decided no correspondences (all sizes invalid for the selected topologies)")
		return 2
	}
	if !jsonOut {
		fmt.Println()
		render(podc.SweepResultsTable(rows))
		if st, ok := session.StoreStats(); ok {
			fmt.Printf("store: %d replayed, %d missed, %d invalid entries recomputed, %d written\n",
				st.Hits, st.Misses, st.Invalid, st.Writes)
		}
	}
	return 0
}

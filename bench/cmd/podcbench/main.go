// Command podcbench runs one workload of the repository benchmark and
// prints every metric as "name value unit", then the result as one JSON
// line: {"correct", "attempted", "failed", "metrics"}.  It exits 0 when
// every answer was correct, 1 on a wrong answer, and 2 when the run could
// not be measured.
//
// Usage (from the repository root; bench/run.sh builds it first):
//
//	podcbench -workload sweep|check|battery|replay -seed N [-seconds S] [-trace 0|1]
//
// -trace 1 makes a traced run: it reports the per-layer metrics instead of
// the end-to-end ones and writes its spans to <out>/trace-<workload>-seed<N>.json.
// Every run writes its full record (all samples, the seed, nproc,
// GOMAXPROCS, the Go version and the git commit) to <out>/record-*.json;
// <out> defaults to .bench_build at the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"repro/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var cfg bench.Config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: sweep, check, battery or replay")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for a traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.Out, "out", "", "directory for stores, records and traces (default: .bench_build at the repository root)")
	flag.StringVar(&cfg.Server, "server", "", "podcserve binary (default: build it into -out)")
	flag.Parse()
	if flag.NArg() > 0 || cfg.Workload == "" || (trace != 0 && trace != 1) {
		flag.Usage()
		return 2
	}
	cfg.Trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "podcbench:", err)
		return 2
	}

	defs := bench.EndToEnd
	if cfg.Trace {
		fmt.Print(res.Report)
		defs = bench.PerLayer
	}
	for _, m := range defs {
		v := res.Metrics[m.Name]
		fmt.Printf("%s %s %s\n", m.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	fmt.Printf("record %s\n", res.RecordPath)
	if res.TracePath != "" {
		fmt.Printf("trace %s\n", res.TracePath)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "podcbench: wrong answer:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "podcbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

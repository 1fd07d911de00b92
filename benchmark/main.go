// Command benchmark measures glade-serve's two journeys end to end and layer
// by layer: a learn, from POST /v1/jobs to the fetched grammar, and a
// check, from a client's batch to its verdicts.
//
// It boots one in-process glade-serve node on loopback, wired as the
// daemon wires it (service.New behind cluster.NewRouter over a one-peer
// ring), and drives it from closed-loop clients in the same process. One
// run measures one workload:
//
//	learn-xml   learn jobs for program:xml at workers 1 (learner CPU),
//	            then batch checks against xml's grammar (service and router)
//	check-sed   batch checks against sed's grammar (recognition ladder),
//	            then learn jobs for program:sed
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// splits them into per-layer metrics from server-side handler wrappers,
// out-of-band store and ladder timings, the job's own spans and stats, and
// a library replay of each learn through core.Learn. Every fetched grammar
// and every verdict is checked; any mismatch fails the run.
//
// Build and run from the repository root:
//
//	bash benchmark/run.sh --workload learn-xml --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --seconds 5
//
// The last line of output is one JSON object: correct, attempted, failed
// and metrics. The line before it records the environment, the corpus mix,
// sample counts, and the isolation and split checks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"glade/internal/oracle"
	_ "glade/internal/oracle/registry"
)

// stdinOracleArg as the first argument makes the binary an exec oracle:
// read stdin, exit 0 iff the named builtin accepts it. Each run times it on
// empty input to record the machine's process-spawn floor.
const stdinOracleArg = "stdin-oracle"

func main() {
	if len(os.Args) > 2 && os.Args[1] == stdinOracleArg {
		os.Exit(runStdinOracle(os.Args[2], os.Stdin))
	}
	c := defaultConfig()
	flag.StringVar(&c.Workload, "workload", "", "learn-xml, check-sed, or all")
	flag.Int64Var(&c.Seed, "seed", 1, "seed for the check corpus and the clients' batch choice")
	flag.Float64Var(&c.Seconds, "seconds", 10, "measured duration of each of the workload's two journeys")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.StringVar(&c.TraceOut, "trace-out", "", "NDJSON span file for --trace 1 (default .bench_build/traces/WORKLOAD-seedN.ndjson)")
	flag.Parse()
	c.Trace = *trace == 1

	names := []string{c.Workload}
	if c.Workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	status := 0
	for _, name := range names {
		wc := c
		wc.Workload = name
		if wc.Trace && wc.TraceOut == "" {
			wc.TraceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.ndjson", name, wc.Seed))
		}
		res, err := Run(context.Background(), wc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "benchmark:", name+":", e)
		}
		rec, _ := json.Marshal(map[string]any{"record": res.Record})
		fmt.Println(string(rec))
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			status = 1
		}
	}
	os.Exit(status)
}

// runStdinOracle answers one membership query for the named builtin over
// stdin: exit status 0 accepts, 1 rejects, 2 is a usage error.
func runStdinOracle(name string, in io.Reader) int {
	reg, ok := oracle.LookupNamed(oracle.SpecBuiltin, name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown builtin oracle %q\n", name)
		return 2
	}
	input, err := io.ReadAll(in)
	if err != nil {
		return 2
	}
	v, err := reg.New(0, 1).Check(context.Background(), string(input))
	if err != nil || !v.Accepted() {
		return 1
	}
	return 0
}

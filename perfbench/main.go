// Command perfbench is the layered performance benchmark of the topk
// cluster. One process drives the system through its public entry
// points — topk.Cluster.Exec against HTTP owners, core.Run over a stripe
// database, live.Coordinator.Apply beside ad-hoc reads — from two
// closed-loop clients, checks every answer against an oracle, and prints
// one JSON result line:
//
//	perfbench --workload cluster|stripe|live --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of an instrumented run,
// measured from the benchmark's own calls into each layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every size so the benchmark's own tests run in
	// seconds; the command line never sets it.
	tiny bool
	// workdir holds the files a run writes; empty means .bench_build
	// under the working directory.
	workdir string
	// tamper, when non-nil, edits the generated inputs before set-up;
	// tests use it to plant wrong expectations.
	tamper func(*inputs)
}

// warmup is how long the clients run unmeasured after set-up, so caches
// fill and connections open before timing.
func (c config) warmup() time.Duration {
	if c.tiny {
		return 100 * time.Millisecond
	}
	return time.Second
}

// dir returns the directory for the files a run writes.
func (c config) dir() string {
	if c.workdir == "" {
		return ".bench_build"
	}
	return c.workdir
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*result, error){
	"cluster": runCluster,
	"stripe":  runStripe,
	"live":    runLive,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cluster, stripe or live")
	seed := fs.Int64("seed", 1, "seed of the generated data, query pool and update stream")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the instrumented per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0 or 1\n", names)
		return 2
	}
	res, err := run(config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// Command perfbench is the simulator's host-time benchmark. It runs one
// named workload for a fixed window, checks every op's output against
// an oracle computed before timing starts, and prints its metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same workload runs with spans recorded around every call into the
// simulator's layers, and the metrics are the per-layer ones. The
// traced run also writes its spans as a Chrome trace_event file.
//
// Build and run it with perfbench/run.sh from the repository root; see
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	outDir   string // where a traced run writes its Chrome trace
	fp       fingerprint
}

// fingerprint is the host and build every result is recorded with.
type fingerprint struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// values holds every metric the workload measured, end-to-end and
	// per-layer, by catalog name.
	values map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"paper_path": runPaperPath,
	"long_runs":  runLongRuns,
	"jobs":       runJobs,
}

func main() {
	workload := flag.String("workload", "", "workload: paper_path, long_runs or jobs")
	seed := flag.Int64("seed", 1, "seed for op order, variant draws and arrivals")
	seconds := flag.Float64("seconds", 20, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 records per-layer spans and prints the per-layer metrics")
	commit := flag.String("commit", "unknown", "commit of the code under test, recorded in the fingerprint")
	outDir := flag.String("out", filepath.Join(".bench_build", "traces"), "directory for the Chrome trace of a traced run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload paper_path|long_runs|jobs -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		outDir:   *outDir,
		fp: fingerprint{
			Workload:   *workload,
			Seed:       *seed,
			Seconds:    *seconds,
			Trace:      *trace == 1,
			Nproc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			Commit:     *commit,
		},
	}
	res, err := measure(cfg, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fp, _ := json.Marshal(map[string]fingerprint{"fingerprint": cfg.fp}) // plain struct: cannot fail
	fmt.Println(string(fp))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed their oracle check\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// measure runs the workload and selects the metrics the mode reports:
// the end-to-end catalog untraced, the per-layer catalog traced.
func measure(cfg config, run func(config) (*outcome, error)) (*result, error) {
	oc, err := run(cfg)
	if err != nil {
		return nil, err
	}
	if oc.attempted < 1 {
		return nil, errors.New("no op completed inside the window")
	}
	oc.values["bench.fail_frac"] = float64(oc.failed) / float64(oc.attempted)
	defs := endToEnd
	if cfg.traced {
		defs = perLayer()
	}
	res := &result{
		Correct:   oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := oc.values[d.name]
		switch {
		case !ok && !cfg.traced:
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("workload %s: %s is %v", cfg.workload, d.name, v)
		}
		// A per-layer metric the workload does not exercise reads 0.
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

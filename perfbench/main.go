// Command perfbench is the repository's training-step benchmark. It
// trains world-2 clusters of this code (ranks are goroutines of one
// process) in a closed loop, checks the results, and reports either the
// end-to-end metrics of an untraced run (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). BENCHMARK.json at the
// repository root lists the workloads and metrics.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload ddp-mlp-tcp --seed 1 --seconds 20 --trace 1
//
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The
// exit code is non-zero when an output check fails. --workload all runs
// every workload, untraced and traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is one run's outcome.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	Notes     []string // printed before the metrics
}

func (r *Result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{name, v, unit})
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check: the run is incorrect and every
// step it attempted counts as failed.
func (r *Result) fail(err error) {
	r.Correct = false
	r.Failed = r.Attempted
	r.note("CHECK FAILED: %v", err)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the model initialisation and the synthetic data")
	seconds := flag.Float64("seconds", 20, "length of the measured training in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and checkpoints")
	flag.Parse()

	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	type job struct {
		label string // prefixes metric names when several workloads run
		run   func() (*Result, error)
	}
	var jobs []job
	if *workload == "all" {
		for _, w := range workloads {
			jobs = append(jobs,
				job{w.Name + "/", func() (*Result, error) { return runEndToEnd(w, *seed, budget, *out) }},
				job{w.Name + "/", func() (*Result, error) { return runLayers(w, *seed, budget, *out) }})
		}
	} else {
		w, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		run := runEndToEnd
		if *trace == 1 {
			run = runLayers
		}
		jobs = append(jobs, job{"", func() (*Result, error) { return run(w, *seed, budget, *out) }})
	}

	total := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, j := range jobs {
		res, err := j.run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		for _, n := range res.Notes {
			fmt.Println(j.label + n)
		}
		for _, m := range res.Metrics {
			fmt.Printf("%s%-32s %14.6g %s\n", j.label, m.Name, m.Value, m.Unit)
			total.Metrics[j.label+m.Name] = metricJSON{m.Value, m.Unit}
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

// Command benchmark is the repository's benchmark: it trains one named
// workload through the product path (dataset.New → systems.Build →
// Trainer.Run → Trainer.SaveCheckpoint), checks every run's results, and
// prints its metrics as one JSON object on the last line of standard
// output.
//
//	go run . --workload criteo-gmp --seed 1 --seconds 20 --trace 0
//
// --trace 0 repeats the job untraced for --seconds and reports the
// end-to-end metrics; --trace 1 runs the traced pass and reports the
// per-layer metrics. Scratch files go under --dir. The command exits
// non-zero when any run fails a check or a metric is missing. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(execute(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance is what comparing or reproducing a run needs besides its
// metrics. It is printed on the line before the result.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seeds      int     `json:"input_seeds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func execute(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are derived from")
	seconds := fs.Float64("seconds", 25, "how long the untraced pass repeats the job")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the untraced one")
	dir := fs.String("dir", ".bench_build/work", "scratch directory for checkpoints and cold-tier files")
	commit := fs.String("commit", "unknown", "source revision, recorded in the provenance line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments:", err)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(work)

	o := newOutcome()
	want := endToEnd
	var seeds []uint64
	if *trace == 1 {
		want, seeds = perLayer, inputSeeds(*seed, 1)
		tracePass(w, seeds[0], work, o)
	} else {
		seeds = inputSeeds(*seed, datasets)
		measure(w, seeds, time.Duration(*seconds*float64(time.Second)), work, o)
	}
	if drop != "" {
		delete(o.values, drop)
	}
	o.finish(want)

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, m := range want {
		if v, ok := o.values[m.Name]; ok {
			res.Metrics[m.Name] = value{v, m.Unit}
		}
	}
	for _, n := range o.notes {
		fmt.Fprintln(stderr, "benchmark:", n)
	}
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "benchmark: FAILED:", f)
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(provenance{
		Workload: w.Name, Seed: *seed, Seeds: len(seeds), Scale: w.Scale, Trace: *trace == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: *commit,
	})
	enc.Encode(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// drop, when set, removes a metric before the output is checked. Only the
// self-tests set it, to prove a missing metric fails the run.
var drop string

// inputSeeds derives n distinct dataset seeds from the benchmark seed
// (splitmix64), so every seed gives the same inputs.
func inputSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		out[i] = z ^ z>>31
	}
	return out
}

// Command hetgmp-bench regenerates the tables and figures of the HET-GMP
// paper's evaluation on the simulated substrate.
//
// Usage:
//
//	hetgmp-bench [-exp id[,id...]] [-scale f] [-dim n] [-batch n] [-epochs n] [-seed n] [-quick]
//
// With no -exp flag every experiment runs in the paper's order. Experiment
// IDs: fig1, fig3, fig7, fig8, table2, fig9a, fig9b, table3, fig10,
// capacity. Wall-clock throughput is measured by the repository benchmark
// (bash benchmark/run.sh), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hetgmp/internal/experiments"
)

func main() {
	var (
		expFlag = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		scale   = flag.Float64("scale", 0, "dataset scale factor (default 1e-3)")
		dim     = flag.Int("dim", 0, "embedding dimension (default 32)")
		batch   = flag.Int("batch", 0, "per-worker batch size (default 256)")
		epochs  = flag.Int("epochs", 0, "training epochs for end-to-end runs (default 4)")
		seed    = flag.Uint64("seed", 0, "random seed (default 22)")
		quick   = flag.Bool("quick", false, "trim datasets and arms for a fast pass")
		check   = flag.Bool("check", false, "enable runtime invariant checking on every training run")
		list    = flag.Bool("list", false, "list experiment IDs and exit")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hetgmp-bench: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hetgmp-bench: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, id := range experiments.Order {
			fmt.Println(id)
		}
		return
	}

	p := experiments.Params{
		Scale: *scale, Dim: *dim, Batch: *batch,
		Epochs: *epochs, Seed: *seed, Quick: *quick,
		CheckInvariants: *check,
	}

	ids := experiments.Order
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		res, err := run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

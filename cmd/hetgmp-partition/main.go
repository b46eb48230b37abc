// Command hetgmp-partition partitions a CTR dataset's bigraph and reports
// quality metrics, comparing Random, BiCut and the paper's hybrid iterative
// algorithm (Algorithm 1) side by side.
//
// Usage:
//
//	hetgmp-partition [-dataset name|-file path] [-scale f] [-parts n] [-rounds n]
//	                 [-replicas f] [-hierarchical] [-workers n] [-seed n]
//	                 [-metrics out.json]
//
// -metrics writes the partitioner's metrics-registry snapshot (per-round
// δg improvement, move counts, pass wall times) as JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/dataset"
	"hetgmp/internal/obs"
	"hetgmp/internal/partition"
	"hetgmp/internal/report"
)

func main() {
	var (
		dsName   = flag.String("dataset", "criteo", "synthetic dataset preset (avazu|criteo|company)")
		file     = flag.String("file", "", "load a dataset file instead of generating one")
		scale    = flag.Float64("scale", 1e-3, "synthetic dataset scale")
		parts    = flag.Int("parts", 8, "number of partitions")
		rounds   = flag.Int("rounds", 5, "hybrid partitioner rounds (Algorithm 1's T)")
		replicas = flag.Float64("replicas", 0.01, "secondary replica fraction per partition")
		hier     = flag.Bool("hierarchical", false, "price edges by a 2-machine cluster-B bandwidth hierarchy")
		workers  = flag.Int("workers", 0, "scoring goroutines for the chunked-delta passes (0 = GOMAXPROCS; never changes the output)")
		metPath  = flag.String("metrics", "", "write the hybrid partitioner's metrics snapshot as JSON to this file")
		seed     = flag.Uint64("seed", 22, "random seed")
	)
	flag.Parse()

	ds, err := loadDataset(*file, *dsName, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetgmp-partition:", err)
		os.Exit(1)
	}
	st := ds.Stats()
	fmt.Printf("dataset %s: %d samples, %d features, %d fields\n\n",
		st.Name, st.NumSamples, st.NumFeatures, st.NumFields)

	g := bigraph.FromDataset(ds)
	deg := g.DegreeStats()
	fmt.Printf("degree skew: max=%d mean=%.1f top1%%-share=%s top10%%-share=%s\n\n",
		deg.Max, deg.Mean, report.Percent(deg.Top1Share), report.Percent(deg.Top10Share))

	var weights [][]float64
	if *hier {
		topo := cluster.ClusterB(2)
		if topo.NumWorkers() != *parts {
			topo = &cluster.Topology{
				Name: "custom", Nodes: 1, GPUsPerNode: *parts, SocketsPerNode: 2,
				IntraSocket: cluster.NVLink, CrossSocket: cluster.QPI,
				Network: cluster.Ethernet10G, GPUFlops: 1e12,
			}
		}
		weights = topo.WeightMatrix(cluster.WeightHierarchical)
	}

	t := report.New(fmt.Sprintf("partitioning quality (%d partitions)", *parts),
		"algorithm", "remote/epoch", "reduction", "local frac", "repl factor", "sample imbal", "time")

	start := time.Now()
	random := partition.Random(g, *parts, *seed)
	rq := partition.Evaluate(g, random, weights)
	addRow(t, "Random", rq, rq, time.Since(start))

	start = time.Now()
	bc, err := partition.BiCut(g, partition.BiCutConfig{Partitions: *parts, BalanceSlack: 0.05, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetgmp-partition:", err)
		os.Exit(1)
	}
	addRow(t, "BiCut", partition.Evaluate(g, bc, weights), rq, time.Since(start))

	cfg := partition.DefaultHybridConfig(*parts)
	cfg.Rounds = *rounds
	cfg.ReplicaFraction = *replicas
	cfg.Weights = weights
	cfg.Seed = *seed
	cfg.Parallelism = *workers
	var reg *obs.Registry
	if *metPath != "" {
		reg = obs.NewRegistry(1)
		cfg.Obs = reg
	}
	hr, err := partition.Hybrid(g, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetgmp-partition:", err)
		os.Exit(1)
	}
	for _, rs := range hr.Rounds {
		label := fmt.Sprintf("Hybrid (round %d)", rs.Round)
		if rs.Round == *rounds {
			addRow(t, label, partition.Evaluate(g, hr.Assignment, weights), rq, rs.Elapsed)
		} else {
			t.AddRow(label, rs.RemoteAccesses,
				report.Percent(1-float64(rs.RemoteAccesses)/float64(rq.RemoteAccesses)),
				"-", "-", "-", rs.Elapsed.Round(time.Millisecond).String())
		}
	}
	fmt.Println(t.String())

	rt := report.New("hybrid rounds (Algorithm 1 passes)",
		"round", "sample moves", "feature moves", "sample pass", "feature pass", "replicate pass")
	for _, rs := range hr.Rounds {
		rt.AddRow(rs.Round, rs.SampleMoves, rs.FeatureMoves,
			rs.SamplePass.Round(time.Millisecond).String(),
			rs.FeaturePass.Round(time.Millisecond).String(),
			rs.ReplicatePass.Round(time.Millisecond).String())
	}
	fmt.Println(rt.String())

	if reg != nil {
		snap := reg.Snapshot()
		if err := snap.WriteJSON(*metPath); err != nil {
			fmt.Fprintln(os.Stderr, "hetgmp-partition:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d metrics to %s\n", len(snap.Metrics), *metPath)
	}
}

func addRow(t *report.Table, name string, q, base partition.Quality, dt time.Duration) {
	red := 0.0
	if base.RemoteAccesses > 0 {
		red = 1 - float64(q.RemoteAccesses)/float64(base.RemoteAccesses)
	}
	t.AddRow(name, q.RemoteAccesses, report.Percent(red),
		report.Percent(q.LocalFraction),
		fmt.Sprintf("%.3f", q.ReplicationFactor),
		fmt.Sprintf("%.3f", q.SampleImbalance),
		dt.Round(time.Millisecond).String())
}

func loadDataset(file, name string, scale float64, seed uint64) (*dataset.Dataset, error) {
	if file == "" {
		return dataset.New(name, scale, seed)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.Load(f)
}

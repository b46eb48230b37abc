// Command hetgmp-train runs one end-to-end distributed training job on the
// simulated cluster and reports convergence, throughput and the
// communication breakdown.
//
// Usage:
//
//	hetgmp-train [-system name] [-model wdl|dcn|deepfm] [-dataset name] [-scale f]
//	             [-gpus n] [-staleness s] [-epochs n] [-dim n] [-batch n] [-seed n]
//	             [-tier-hot f] [-tier-cold f] [-tier-cold-dir dir] [-mem-budget bytes]
//	             [-transport sim|tcp] [-rank r] [-peers host:port,...]
//	             [-trace out.json] [-metrics out-metrics.json] [-report report.json]
//	             [-http addr] [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// Systems: tf-ps, parallax, hugectr, het-mp, het-gmp.
//
// -tier-hot enables tiered embedding storage (hot clock-LFU cache + packed
// warm arena + mmap cold spill). Values below 1 are fractions of the feature
// count, values ≥1 absolute rows; -mem-budget sizes the hot cache from a byte
// budget instead. Tiering never changes the result: clocks, convergence and
// checkpoints are bit-identical to the flat store.
//
// -transport=tcp runs one worker per OS process, shared-nothing, over real
// sockets: launch one process per rank with the same flags, -rank set to
// its index into -peers. Every rank's output (and checkpoint) is
// bit-identical to a single-process -transport=sim run of the same seed
// with -gpus equal to the peer count.
//
// -trace writes a Chrome trace_event JSON of per-worker phase spans on the
// simulated clock; open it at https://ui.perfetto.dev or chrome://tracing.
// -metrics writes the full metrics-registry snapshot as JSON.
// -report runs the critical-path analyzer over the finished run, writes the
// typed RunReport as JSON and appends its rendering to the run summary;
// compare two reports with `hetgmp-obs diff`.
// -http serves live telemetry while training runs: Prometheus text
// exposition at /metrics (race-safe sources only, so scraping never
// perturbs the run) and net/http/pprof under /debug/pprof/.
//
// In tcp mode all telemetry is rank-tagged: -trace/-metrics/-report paths
// gain a .rankN suffix (report.json → report.rank0.json), metric snapshots
// and /metrics samples carry the rank, and trace events carry pid = rank.
// Merge the per-rank reports with `hetgmp-obs merge`.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	httpprof "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hetgmp/internal/cluster"
	"hetgmp/internal/comm"
	"hetgmp/internal/comm/tcpnet"
	"hetgmp/internal/dataset"
	"hetgmp/internal/embed"
	"hetgmp/internal/engine"
	"hetgmp/internal/obs"
	"hetgmp/internal/report"
	"hetgmp/internal/systems"
)

func main() {
	var (
		sysName   = flag.String("system", "het-gmp", "training system (tf-ps|parallax|hugectr|het-mp|het-gmp)")
		model     = flag.String("model", "wdl", "CTR model (wdl|dcn|deepfm)")
		dsName    = flag.String("dataset", "criteo", "synthetic dataset preset (avazu|criteo|company)")
		scale     = flag.Float64("scale", 1e-3, "dataset scale")
		gpus      = flag.Int("gpus", 8, "number of simulated GPUs")
		staleness = flag.Int64("staleness", 100, "HET-GMP staleness bound s (-1 for infinity)")
		epochs    = flag.Int("epochs", 4, "training epochs")
		dim       = flag.Int("dim", 32, "embedding dimension")
		batch     = flag.Int("batch", 256, "per-worker batch size")
		target    = flag.Float64("target", 0, "stop once test AUC reaches this (0: run all epochs)")
		csvPath   = flag.String("csv", "", "write the convergence history as CSV to this file")
		ckptPath  = flag.String("checkpoint", "", "write a model+embedding checkpoint to this file after training")
		check     = flag.Bool("check", false, "enable runtime invariant checking (clock monotonicity, staleness bounds, traffic accounting); a violation aborts with a structured report")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON of per-worker phase spans (simulated clock) to this file")
		metPath   = flag.String("metrics", "", "write the metrics-registry snapshot as JSON to this file")
		repPath   = flag.String("report", "", "analyze the run and write the critical-path RunReport as JSON to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		seed      = flag.Uint64("seed", 22, "random seed")
		tierHot   = flag.Float64("tier-hot", 0, "hot-cache budget for tiered embedding storage: a value <1 is a fraction of the feature count, ≥1 an absolute row count; 0 keeps the flat store")
		tierCold  = flag.Float64("tier-cold", 0, "rows spilled to the mmap cold tier (same fraction-or-rows convention as -tier-hot); requires -tier-hot")
		tierDir   = flag.String("tier-cold-dir", "", "directory for cold-tier spill files (default: a private temp dir removed on exit)")
		memBudget = flag.Int64("mem-budget", 0, "embedding-value memory budget in bytes: sizes the hot cache to fit (overrides -tier-hot) and spills the remainder cold")
		transport = flag.String("transport", "sim", "execution backend: 'sim' runs all workers in this process; 'tcp' runs one worker per process over real sockets (requires -rank and -peers)")
		rank      = flag.Int("rank", 0, "this process's rank for -transport=tcp")
		peers     = flag.String("peers", "", "comma-separated host:port listen addresses, one per rank, for -transport=tcp (overrides -gpus: one GPU per peer)")
		httpAddr  = flag.String("http", "", "serve live telemetry on this address (e.g. :9090): Prometheus text exposition at /metrics plus net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	// Resolve the tcp peer list first: it fixes the worker count, which
	// sizes the registry, and both must exist before the transport connects
	// so the transport's instruments land in the same registry.
	var addrs []string
	if *transport == "tcp" {
		addrs = strings.Split(*peers, ",")
		if *peers == "" || len(addrs) < 2 {
			fatal(fmt.Errorf("-transport=tcp needs -peers with at least two comma-separated addresses"))
		}
		*gpus = len(addrs)
	}

	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metPath != "" || *tracePath != "" || *repPath != "" || *httpAddr != "" {
		reg = obs.NewRegistry(*gpus)
		// Rank-tag the registry immediately (the engine would do it too, but
		// only once the transport has connected): every /metrics scrape —
		// including ones during the connect window — carries the rank label.
		if *transport == "tcp" {
			reg.SetRank(*rank, len(addrs))
		}
		// Host-side memory health (heap, GC cycles, stop-the-world time)
		// rides along on every scrape, rank-tagged like the rest.
		obs.RegisterRuntimeMetrics(reg)
	}
	if *tracePath != "" || *repPath != "" {
		tracer = obs.NewTracer()
	}

	// Live telemetry endpoint. Started before the transport connects, so a
	// rank waiting out startup skew in Connect is already scrapeable. The
	// handler serves the registry's LiveSnapshot (race-safe sources only),
	// so scraping mid-run cannot perturb training.
	if *httpAddr != "" {
		lis, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/debug/pprof/", httpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httpprof.Trace)
		fmt.Printf("telemetry: serving /metrics and /debug/pprof on %s\n", lis.Addr())
		go func() {
			if err := http.Serve(lis, mux); err != nil {
				fmt.Fprintln(os.Stderr, "hetgmp-train: telemetry server:", err)
			}
		}()
	}

	// Multi-process mode: every rank builds the identical job (same seed,
	// same dataset, same partition) and the engine exchanges per-iteration
	// effects over the transport; any rank's results and checkpoint are
	// bit-identical to a single-process -transport=sim run with the same
	// flags and -gpus equal to the number of peers.
	var dist *engine.DistConfig
	switch *transport {
	case "sim":
	case "tcp":
		tr, err := tcpnet.Connect(tcpnet.Config{Rank: *rank, Peers: addrs, Obs: reg})
		if err != nil {
			fatal(err)
		}
		defer tr.Close()
		fmt.Printf("transport: tcp, rank %d of %d (%s)\n", *rank, len(addrs), addrs[*rank])
		dist = &engine.DistConfig{Transport: tr, RecvTimeout: 2 * time.Minute}
		// Each rank writes its own telemetry files: report.json becomes
		// report.rank0.json etc. Checkpoint and CSV names stay exactly as
		// given — they are per-rank outputs the caller names explicitly.
		*tracePath = rankPath(*tracePath, *rank)
		*metPath = rankPath(*metPath, *rank)
		*repPath = rankPath(*repPath, *rank)
	default:
		fatal(fmt.Errorf("unknown -transport %q (want sim or tcp)", *transport))
	}

	ds, err := dataset.New(*dsName, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	train, test := ds.Split(0.9)
	topo, err := cluster.ScaleOut(*gpus)
	if err != nil {
		fatal(err)
	}
	s := *staleness
	if s < 0 {
		s = embed.StalenessInf
	}
	st0 := train.Stats()
	tiers, err := tierConfig(*tierHot, *tierCold, *memBudget, *tierDir, st0.NumFeatures, *dim)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetgmp-train:", err)
		os.Exit(2)
	}
	tr, err := systems.Build(systems.System(*sysName), systems.Options{
		Train: train, Test: test, ModelName: *model, Topo: topo,
		Dim: *dim, BatchPerWorker: *batch, Epochs: *epochs,
		Staleness: s, TargetAUC: *target, EvalSamples: 8192, Seed: *seed,
		CheckInvariants: *check,
		Metrics:         reg, Tracer: tracer, Report: *repPath != "",
		Dist:  dist,
		Tiers: tiers,
	})
	if err != nil {
		fatal(err)
	}
	defer tr.Close()
	if tiers.Enabled() {
		fmt.Printf("storage: tiered — %d hot rows, %d cold rows (of %d)\n",
			tiers.HotRows, tiers.ColdRows, st0.NumFeatures)
	}

	fmt.Printf("system:  %s — %s\n", *sysName, systems.Describe(systems.System(*sysName)))
	fmt.Printf("cluster: %s (%d workers)\n", topo.Name, topo.NumWorkers())
	st := train.Stats()
	fmt.Printf("dataset: %s, %d train samples, %d features, %d fields; model %s dim %d\n\n",
		*dsName, st.NumSamples, st.NumFeatures, st.NumFields, *model, *dim)

	res, err := tr.Run()
	if err != nil {
		fatal(err)
	}

	curve := report.New("convergence", "iteration", "epoch", "sim time (s)", "AUC", "train loss")
	for _, pt := range res.History {
		curve.AddRow(pt.Iteration, pt.Epoch, pt.SimTime, pt.AUC, pt.Loss)
	}
	fmt.Println(curve.String())

	sum := report.New("run summary", "metric", "value")
	sum.AddRow("final AUC", res.FinalAUC)
	sum.AddRow("best AUC", res.BestAUC)
	if res.ConvergedAt >= 0 {
		sum.AddRow("time to target AUC (sim s)", res.ConvergedAt)
	}
	sum.AddRow("iterations", res.Iterations)
	sum.AddRow("samples processed", res.SamplesProcessed)
	sum.AddRow("total simulated time (s)", res.TotalSimTime)
	sum.AddRow("throughput (samples/s)", res.Throughput)
	sum.AddRow("communication fraction", report.Percent(res.CommFraction()))
	b := res.Breakdown
	sum.AddRow("embedding+grads bytes", report.FormatBytes(b.Bytes[comm.CatEmbedding]))
	sum.AddRow("index+clocks bytes", report.FormatBytes(b.Bytes[comm.CatMeta]))
	sum.AddRow("allreduce-dense bytes", report.FormatBytes(b.Bytes[comm.CatDense]))
	sum.AddRow("reads: local primary", res.LocalPrimary)
	sum.AddRow("reads: fresh secondary", res.LocalFresh)
	sum.AddRow("reads: synced (intra)", res.SyncedIntra)
	sum.AddRow("reads: synced (inter)", res.SyncedInter)
	sum.AddRow("reads: remote", res.RemoteReads)
	if res.Invariants.Checks > 0 {
		sum.AddRow("invariant checks", res.Invariants.Checks)
		sum.AddRow("invariant violations", res.Invariants.Violations)
	}
	if gap, ok := res.Metrics.Get("table.staleness.admitted_gap"); ok && gap.Count > 0 {
		sum.AddRow("staleness gap (admitted) max", gap.Max)
		sum.AddRow("staleness gap (admitted) mean", gap.MeanOf())
	}
	if ts := res.TierStats; ts != nil {
		sum.AddRow("tiers: hot/warm/cold rows", fmt.Sprintf("%d/%d/%d", ts.HotRows, ts.WarmRows, ts.ColdRows))
		sum.AddRow("tiers: hot bytes", report.FormatBytes(ts.HotBytes))
		sum.AddRow("tiers: warm bytes", report.FormatBytes(ts.WarmBytes))
		sum.AddRow("tiers: cold bytes", report.FormatBytes(ts.ColdBytes))
		sum.AddRow("tiers: read hit rate", report.Percent(ts.ReadHitRate()))
		sum.AddRow("tiers: commit hit rate", report.Percent(ts.CommitHitRate()))
		sum.AddRow("tiers: promotions/demotions", fmt.Sprintf("%d/%d", ts.Promotions, ts.Demotions))
	}
	fmt.Println(sum.String())

	if tracer != nil {
		fmt.Println(tracer.Summary().String())
	}
	if *repPath != "" {
		if res.Report == nil {
			fatal(fmt.Errorf("run produced no report"))
		}
		fmt.Println(res.Report.String())
		if err := res.Report.WriteJSON(*repPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote run report to %s — compare with `hetgmp-obs diff -base <baseline> -cand %s`\n",
			*repPath, *repPath)
	}
	if *metPath != "" {
		if err := res.Metrics.WriteJSON(*metPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d metrics to %s\n", len(res.Metrics.Metrics), *metPath)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteChrome(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		// Self-validate: re-read the file and require at least one span of
		// every phase the run must exhibit. A single worker has no peers to
		// exchange embeddings with or AllReduce against, so only compute is
		// guaranteed there.
		required := obs.CorePhases()
		if topo.NumWorkers() == 1 {
			required = []string{"compute"}
		}
		data, err := os.ReadFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		counts, err := obs.ValidateChrome(data, required)
		if err != nil {
			fatal(err)
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		fmt.Printf("wrote %d spans (%d phases) to %s — load it at https://ui.perfetto.dev\n",
			total, len(counts), *tracePath)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(f, "iteration,epoch,sim_time_s,auc,train_loss")
		for _, pt := range res.History {
			fmt.Fprintf(f, "%d,%d,%g,%g,%g\n", pt.Iteration, pt.Epoch, pt.SimTime, pt.AUC, pt.Loss)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote convergence CSV to %s\n", *csvPath)
	}
	if *ckptPath != "" {
		f, err := os.Create(*ckptPath)
		if err != nil {
			fatal(err)
		}
		if err := tr.SaveCheckpoint(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote checkpoint to %s\n", *ckptPath)
	}
}

// tierConfig resolves the tier flags against the dataset's feature count.
// hot and cold follow the fraction-or-rows convention (<1: fraction of
// features; ≥1: absolute rows). A memory budget overrides hot: the cache is
// sized to fit budget bytes of rows (at least one), and every row the budget
// cannot hold beyond the hot set spills cold. The hot set is clamped to the
// feature count and the cold set to the rows the hot set leaves. A cold
// spill without a hot cache is an error: the flat store has no cold tier.
func tierConfig(hot, cold float64, budget int64, dir string, features, dim int) (embed.TierConfig, error) {
	if cold > 0 && hot <= 0 && budget <= 0 {
		return embed.TierConfig{}, fmt.Errorf("-tier-cold needs -tier-hot or -mem-budget")
	}
	rows := func(v float64) int {
		if v <= 0 {
			return 0
		}
		if v < 1 {
			return int(v * float64(features))
		}
		return int(v)
	}
	cfg := embed.TierConfig{HotRows: rows(hot), ColdRows: rows(cold), ColdDir: dir}
	if budget > 0 {
		rowBytes := int64(dim) * 4
		cfg.HotRows = int(max(1, min(budget/rowBytes, int64(features))))
		if cfg.ColdRows == 0 {
			cfg.ColdRows = features - cfg.HotRows
		}
	}
	cfg.HotRows = min(cfg.HotRows, features)
	cfg.ColdRows = min(cfg.ColdRows, features-cfg.HotRows)
	return cfg, nil
}

// rankPath inserts ".rankN" before the extension, so each rank of a
// multi-process run writes its own telemetry file: report.json →
// report.rank0.json. Empty paths stay empty.
func rankPath(p string, rank int) string {
	if p == "" {
		return ""
	}
	ext := filepath.Ext(p)
	return fmt.Sprintf("%s.rank%d%s", strings.TrimSuffix(p, ext), rank, ext)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hetgmp-train:", err)
	os.Exit(1)
}

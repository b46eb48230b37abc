package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hetgmp/internal/cluster"
	"hetgmp/internal/comm"
	"hetgmp/internal/comm/tcpnet"
	"hetgmp/internal/dataset"
	"hetgmp/internal/embed"
	"hetgmp/internal/engine"
	"hetgmp/internal/systems"
)

// Training settings shared by every workload: the hetgmp-train defaults.
const (
	model          = "wdl"
	batchPerWorker = 256
	staleness      = 100
	epochs         = 1
	evalSamples    = 8192
	trainFrac      = 0.9
	ckptSaves      = 5
	// trainSeed seeds model initialisation, the partitioner and the
	// trainers' sampling (hetgmp-train's default -seed). The benchmark seed
	// generates only the dataset: the program's input.
	trainSeed = 22
	// aucFloor is the lowest final test AUC a run may report. Every
	// workload clears 0.64 on every seed tried; a model that learned
	// nothing scores 0.5.
	aucFloor = 0.6
)

// workload is one training job the benchmark runs through the product path
// dataset.New → systems.Build → Trainer.Run → Trainer.SaveCheckpoint.
type workload struct {
	Name    string
	Why     string
	System  systems.System
	Dataset string
	Dim     int
	GPUs    int
	Scale   float64
	// HotFrac and ColdFrac size tiered storage as fractions of the feature
	// count; zero HotFrac keeps the flat store.
	HotFrac, ColdFrac float64
	// TCP runs one trainer per GPU in this process over a tcpnet loopback
	// mesh instead of one trainer simulating every GPU.
	TCP bool
}

var workloads = []workload{
	{
		Name:   "criteo-gmp",
		Why:    "hetgmp-train defaults: dense GEMM dominates wall time and the hybrid partitioner runs in set-up",
		System: systems.HETGMP, Dataset: dataset.Criteo, Dim: 32, GPUs: 8, Scale: 5e-4,
	},
	{
		Name:   "company-tiered",
		Why:    "random partition, BSP, tiered store: table Read/Update/Commit and tier maintenance take their largest share",
		System: systems.HETMP, Dataset: dataset.Company, Dim: 8, GPUs: 8, Scale: 1e-3,
		HotFrac: 0.02, ColdFrac: 0.5,
	},
	{
		Name:   "avazu-tcp2",
		Why:    "two trainers over a tcpnet loopback mesh: the only workload that drives comm.Transport and the wire codec",
		System: systems.HETGMP, Dataset: dataset.Avazu, Dim: 16, GPUs: 2, Scale: 1e-3,
		TCP: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options builds the systems.Options of one trainer. coldDir receives the
// cold-tier spill files of tiered workloads.
func (w workload) options(train, test *dataset.Dataset, coldDir string) (systems.Options, error) {
	topo, err := cluster.ScaleOut(w.GPUs)
	if err != nil {
		return systems.Options{}, err
	}
	opt := systems.Options{
		Train: train, Test: test, ModelName: model, Topo: topo,
		Dim: w.Dim, BatchPerWorker: batchPerWorker, Epochs: epochs,
		Staleness: staleness, EvalSamples: evalSamples, Seed: trainSeed,
	}
	if w.HotFrac > 0 {
		opt.Tiers = w.tiers(train.NumFeatures, coldDir)
	}
	return opt, nil
}

func (w workload) tiers(features int, coldDir string) embed.TierConfig {
	hot := int(w.HotFrac * float64(features))
	if hot < 1 {
		hot = 1
	}
	return embed.TierConfig{HotRows: hot, ColdRows: int(w.ColdFrac * float64(features)), ColdDir: coldDir}
}

// flat is w with the same job on the flat store in one process: the
// reference whose digest a tiered or multi-rank run must reproduce.
func (w workload) flat() workload {
	w.HotFrac, w.ColdFrac, w.TCP = 0, 0, false
	return w
}

// job is one training run of a workload and what the benchmark measured
// around it.
type job struct {
	setup, run   time.Duration
	checkpoint   float64       // seconds: median of rank 0's saves
	cpu          time.Duration // process user+sys CPU during Run
	trainSamples int
	res          *engine.Result // rank 0's result
	digests      []string       // one per rank
	runtime      runtimeDelta
}

// hooks lets the traced pass observe a job from outside the program.
type hooks struct {
	// wrap replaces each rank's transport before the trainer sees it.
	wrap func(comm.Transport) comm.Transport
	// after runs on rank 0's trainer once its checkpoint is written.
	after func(tr *engine.Trainer, ckpt string) error
}

// runJob trains w once on the dataset generated from seed, as one trainer
// per GPU over a tcp loopback mesh when w.TCP, in a fresh subdirectory of
// dir that it removes again.
func runJob(w workload, seed uint64, dir string, h hooks) (j *job, err error) {
	ranks := 1
	if w.TCP {
		ranks = w.GPUs
	}
	jobDir, err := os.MkdirTemp(dir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jobDir)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()

	j = &job{}
	trainers := make([]*engine.Trainer, ranks)
	transports := make([]comm.Transport, ranks)
	defer func() {
		for r := range trainers {
			if trainers[r] != nil {
				trainers[r].Close()
			}
			if transports[r] != nil {
				transports[r].Close()
			}
		}
	}()
	var peers []string
	var listeners []net.Listener
	if w.TCP {
		peers, listeners, err = listenLoopback(ranks)
		if err != nil {
			return nil, err
		}
	}

	// Set-up: every rank generates the dataset, splits it and builds its
	// trainer, as separate processes would; tcp ranks connect first.
	start := time.Now()
	err = eachRank(ranks, func(r int) error {
		if w.TCP {
			t, err := tcpnet.Connect(tcpnet.Config{Rank: r, Peers: peers, Listener: listeners[r], DialTimeout: 30 * time.Second})
			if err != nil {
				return fmt.Errorf("rank %d connect: %w", r, err)
			}
			transports[r] = t
		}
		ds, err := dataset.New(w.Dataset, w.Scale, seed)
		if err != nil {
			return err
		}
		train, test := ds.Split(trainFrac)
		if r == 0 {
			j.trainSamples = len(train.Samples)
		}
		opt, err := w.options(train, test, filepath.Join(jobDir, fmt.Sprintf("cold%d", r)))
		if err != nil {
			return err
		}
		if w.TCP {
			tr := transports[r]
			if h.wrap != nil {
				tr = h.wrap(tr)
			}
			opt.Dist = &engine.DistConfig{Transport: tr, RecvTimeout: time.Minute}
		}
		trainers[r], err = systems.Build(w.System, opt)
		return err
	})
	j.setup = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// A collection on each side of Run settles the heap before timing and
	// brings the runtime's CPU accounting up to date after it.
	results := make([]*engine.Result, ranks)
	runtime.GC()
	rt0 := readRuntime()
	cpu0 := processCPU()
	start = time.Now()
	err = eachRank(ranks, func(r int) error {
		var err error
		results[r], err = trainers[r].Run()
		return err
	})
	j.run = time.Since(start)
	j.cpu = processCPU() - cpu0
	runtime.GC()
	j.runtime = readRuntime().sub(rt0)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	j.res = results[0]

	// Rank 0's checkpoint is the timed one, saved ckptSaves times for a
	// median, each to a new file as at the end of a real run; the other
	// ranks write theirs afterwards only for the digest.
	ckptPath := func(r, i int) string { return filepath.Join(jobDir, fmt.Sprintf("ckpt%d-%d.bin", r, i)) }
	for r := 0; r < ranks; r++ {
		var saves []float64
		for i := 0; i < ckptSaves && (i == 0 || r == 0); i++ {
			start = time.Now()
			if err := saveCheckpoint(trainers[r], ckptPath(r, i)); err != nil {
				return nil, fmt.Errorf("rank %d checkpoint: %w", r, err)
			}
			saves = append(saves, time.Since(start).Seconds())
		}
		if r == 0 {
			j.checkpoint = median(saves)
		}
		path := ckptPath(r, 0)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if r == 0 && h.after != nil {
			if err := h.after(trainers[0], path); err != nil {
				return nil, err
			}
		}
		j.digests = append(j.digests, digest(results[r], sha256.Sum256(data)))
	}
	return j, nil
}

func saveCheckpoint(tr *engine.Trainer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.SaveCheckpoint(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// eachRank runs fn for every rank concurrently and returns the first error.
func eachRank(ranks int, fn func(r int) error) error {
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d panic: %v", r, p)
				}
			}()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// listenLoopback binds one 127.0.0.1 listener per rank, so the peer list
// is known before any rank connects.
func listenLoopback(ranks int) ([]string, []net.Listener, error) {
	peers := make([]string, ranks)
	lis := make([]net.Listener, ranks)
	for r := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lis[:r] {
				l.Close()
			}
			return nil, nil, err
		}
		lis[r], peers[r] = l, l.Addr().String()
	}
	return peers, lis, nil
}

// digest fingerprints everything a run computes on the simulated clock:
// the AUC/loss history bits, sim time, the traffic breakdown and the
// checkpoint bytes' SHA-256.
func digest(res *engine.Result, ckpt [32]byte) string {
	var b bytes.Buffer
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.Write(&b, binary.LittleEndian, v) // a bytes.Buffer write cannot fail
		}
	}
	f := math.Float64bits
	for _, p := range res.History {
		put(uint64(p.Iteration), uint64(p.Epoch), f(p.SimTime), f(p.AUC), f(p.Loss))
	}
	put(f(res.FinalAUC), f(res.TotalSimTime), uint64(res.Iterations), uint64(res.SamplesProcessed))
	for c := range res.Breakdown.Bytes {
		put(uint64(res.Breakdown.Bytes[c]), f(res.Breakdown.Seconds[c]))
	}
	b.Write(ckpt[:])
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:8])
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/comm"
	"hetgmp/internal/consistency"
	"hetgmp/internal/dataset"
	"hetgmp/internal/embed"
	"hetgmp/internal/engine"
	"hetgmp/internal/nn"
	"hetgmp/internal/optim"
	"hetgmp/internal/partition"
	"hetgmp/internal/systems"
	"hetgmp/internal/tensor"
)

const (
	// layerTime is how long each per-layer microbenchmark keeps repeating.
	layerTime = 500 * time.Millisecond
	// tracePairs is how many untraced and traced jobs the traced pass
	// alternates; run-level figures are medians over them.
	tracePairs = 3
	// nnBatches is how many of the run's batches the nn microbenchmark
	// cycles through, spread evenly over the training set.
	nnBatches = 8
)

// tracePass reports the per-layer metrics of w at seed. Every number comes
// from timing calls into a layer's public entry points from this package,
// or from counters the run already returns; nothing is traced inside the
// program. Every job it trains, untraced or traced, must reproduce the
// same digest.
func tracePass(w workload, seed uint64, dir string, o *outcome) {
	v := o.values

	// Set-up layers, timed separately: median of three.
	var gen, graph, part []float64
	var train *dataset.Dataset
	var g *bigraph.Bigraph
	var assign *partition.Assignment
	for i := 0; i < 3; i++ {
		start := time.Now()
		ds, err := dataset.New(w.Dataset, w.Scale, seed)
		if err != nil {
			o.fail("dataset: %v", err)
			return
		}
		gen = append(gen, time.Since(start).Seconds())
		train, _ = ds.Split(trainFrac)
		start = time.Now()
		g = bigraph.FromDataset(train)
		graph = append(graph, time.Since(start).Seconds())
		opt, err := w.options(train, nil, "")
		if err != nil {
			o.fail("options: %v", err)
			return
		}
		start = time.Now()
		assign, err = systems.BuildAssignment(w.System, g, opt)
		if err != nil {
			o.fail("partition: %v", err)
			return
		}
		part = append(part, time.Since(start).Seconds())
	}
	v["dataset.generate_s"] = median(gen)
	v["bigraph.build_s"] = median(graph)
	v["partition.build_s"] = median(part)
	v["partition.remote_share"] = ratio(float64(partition.Evaluate(g, assign, nil).RemoteAccesses), float64(g.NumEdges()))

	// Untraced and traced jobs alternate, tracePairs of each. A traced job
	// is the same run observed from outside: a counting transport on every
	// rank of a meshed workload (the first traced job's counts are
	// reported), and after the first, its trained embeddings kept as nn
	// input and checkpoint rates measured on its trained state.
	taps := &tapStats{}
	var inputs []*tensor.Matrix
	var ckptWrite, ckptRead float64
	keep := func(tr *engine.Trainer, path string) error {
		inputs = batchInputs(tr.Table(), train, w.Dim)
		var err error
		ckptWrite, ckptRead, err = checkpointRates(tr, path)
		return err
	}
	var traced *job
	var ref string
	var baseRun, tracedRun, tracedCPU, gcShare, allocs []float64
	for i := 0; i < tracePairs; i++ {
		base := o.train("untraced", w, seed, dir, hooks{}, ref)
		if base == nil {
			return
		}
		ref = base.digests[0]
		h := hooks{}
		if w.TCP {
			t := &tapStats{}
			if i == 0 {
				t = taps
			}
			h.wrap = t.wrap
		}
		if i == 0 {
			h.after = keep
		}
		j := o.train("traced", w, seed, dir, h, ref)
		if j == nil {
			return
		}
		if i == 0 {
			traced = j
		}
		samples := float64(j.res.SamplesProcessed)
		baseRun = append(baseRun, base.run.Seconds())
		tracedRun = append(tracedRun, j.run.Seconds())
		tracedCPU = append(tracedCPU, float64(j.cpu.Nanoseconds()))
		gcShare = append(gcShare, ratio(j.runtime.gcCPU, j.cpu.Seconds()))
		allocs = append(allocs, j.runtime.allocBytes/samples)
	}
	res := traced.res
	cpu := median(tracedCPU)
	iters := float64(res.Iterations)
	samples := float64(res.SamplesProcessed)
	o.checkReference(w, seed, dir, ref)
	ranks := 1
	if w.TCP {
		ranks = w.GPUs
	}

	us, gflops, err := benchNN(w, train.NumFields, inputs)
	if err != nil {
		o.fail("nn: %v", err)
		return
	}
	v["nn.fwd_bwd_us_per_sample"] = us
	v["nn.gflops"] = gflops

	ro, err := readOptions(w.System)
	if err != nil {
		o.fail("embed: %v", err)
		return
	}
	readNs, updNs, commitNs, err := benchEmbed(w, train, assign, ro, dir)
	if err != nil {
		o.fail("embed: %v", err)
		return
	}
	v["embed.read_ns_per_row"] = readNs
	v["embed.update_ns_per_row"] = updNs
	v["embed.commit_ns_per_row"] = commitNs
	v["embed.tier_read_hit_rate"], v["embed.tier_promotions_per_iter"] = 1, 0
	if ts := res.TierStats; ts != nil {
		v["embed.tier_read_hit_rate"] = ts.ReadHitRate()
		v["embed.tier_promotions_per_iter"] = float64(ts.Promotions) / iters
	}
	reads := float64(res.LocalPrimary + res.LocalFresh + res.SyncedIntra + res.SyncedInter + res.RemoteReads)
	v["embed.remote_read_share"] = ratio(float64(res.RemoteReads), reads)
	v["embed.synced_reads_per_iter"] = float64(res.SyncedIntra+res.SyncedInter) / iters
	v["embed.checkpoint_write_mb_s"] = ckptWrite
	v["embed.checkpoint_read_mb_s"] = ckptRead

	simTotal := res.ComputeSeconds + res.EmbCommSeconds + res.DenseSeconds
	v["sim.compute_share"] = ratio(res.ComputeSeconds, simTotal)
	v["sim.emb_comm_share"] = ratio(res.EmbCommSeconds, simTotal)
	v["sim.dense_share"] = ratio(res.DenseSeconds, simTotal)

	// A single-process workload drives no transport and frames nothing:
	// its transport counts and codec rates read 0.
	v["comm.transport.msgs_per_iter"] = float64(taps.msgs.Load()) / iters
	v["comm.transport.bytes_per_sample"] = float64(taps.bytes.Load()) / samples
	v["comm.transport.send_busy_ms_per_iter"] = float64(taps.sendNs.Load()) / 1e6 / iters
	v["comm.transport.recv_wait_ms_per_iter"] = float64(taps.recvNs.Load()) / 1e6 / iters
	v["comm.wire.encode_mb_s"], v["comm.wire.decode_mb_s"] = 0, 0
	wireShare := 0.0
	if w.TCP {
		enc, dec, err := benchWire(taps.payloadSizes())
		if err != nil {
			o.fail("wire: %v", err)
			return
		}
		v["comm.wire.encode_mb_s"], v["comm.wire.decode_mb_s"] = enc, dec
		// Every frame is encoded once and decoded once; 1e3/(MB/s) is ns per byte.
		wireShare = float64(taps.bytes.Load()) * (1e3/enc + 1e3/dec) / cpu
	}

	v["runtime.gc_cpu_share"] = median(gcShare)
	v["runtime.alloc_bytes_per_sample"] = median(allocs)

	// Attribution: each layer's measured cost times the run's count of
	// that layer's work, over the traced runs' median process CPU. Every
	// rank of a mesh replays the commit of every worker.
	nnShare := us * 1e3 * samples / cpu
	embedShare := ((readNs+updNs)*reads + commitNs*reads*float64(ranks)) / cpu
	v["trace.attributed_cpu_share"] = nnShare + embedShare + wireShare
	o.notes = append(o.notes, fmt.Sprintf("run CPU shares: nn %.3f, embed %.3f, wire %.4f; gc %.3f",
		nnShare, embedShare, wireShare, v["runtime.gc_cpu_share"]))
	v["trace.overhead_share"] = median(tracedRun)/median(baseRun) - 1
	if s := v["trace.attributed_cpu_share"]; s < attributedFloor {
		o.fail("trace: per-layer costs attribute %.2f of run CPU, floor %.2f", s, attributedFloor)
	}
}

// tapStats aggregates what every wrapped transport of a job carried.
type tapStats struct {
	msgs, bytes    atomic.Int64
	sendNs, recvNs atomic.Int64
	mu             sync.Mutex
	sizes          []int
}

// maxSizes bounds the payload-size sample the wire codec replays.
const maxSizes = 4096

func (s *tapStats) wrap(t comm.Transport) comm.Transport { return &tap{Transport: t, s: s} }

func (s *tapStats) payloadSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.sizes...)
}

// tap is a comm.Transport that counts messages and frame bytes and times
// how long Send is busy and Recv waits.
type tap struct {
	comm.Transport
	s *tapStats
}

func (t *tap) Send(to int, m *comm.Message) error {
	n := len(m.Payload) // the transport owns m once Send returns
	start := time.Now()
	err := t.Transport.Send(to, m)
	t.s.sendNs.Add(int64(time.Since(start)))
	t.s.msgs.Add(1)
	t.s.bytes.Add(comm.FrameSize(n))
	t.s.mu.Lock()
	if len(t.s.sizes) < maxSizes {
		t.s.sizes = append(t.s.sizes, n)
	}
	t.s.mu.Unlock()
	return err
}

func (t *tap) Recv(from int) (*comm.Message, error) {
	start := time.Now()
	m, err := t.Transport.Recv(from)
	t.s.recvNs.Add(int64(time.Since(start)))
	return m, err
}

// batchInputs are the dense inputs of nnBatches of the run's batches: each
// sample's field embeddings, read from the trained table and concatenated.
func batchInputs(tbl *embed.Table, train *dataset.Dataset, dim int) []*tensor.Matrix {
	n := len(train.Samples)
	var out []*tensor.Matrix
	for k := 0; k < nnBatches; k++ {
		in := tensor.NewMatrix(batchPerWorker, train.NumFields*dim)
		for r := 0; r < batchPerWorker; r++ {
			row := in.Row(r)
			for f, x := range train.Samples[(k*n/nnBatches+r)%n].Features {
				copy(row[f*dim:(f+1)*dim], tbl.PrimaryRow(x))
			}
		}
		out = append(out, in)
	}
	return out
}

// benchNN times Forward, BCE, Backward and Grads of the workload's network
// on batches of its real input, and rates the work by FLOPsPerSample.
func benchNN(w workload, fields int, inputs []*tensor.Matrix) (usPerSample, gflops float64, err error) {
	net, err := systems.NewModel(model, fields, w.Dim, trainSeed)
	if err != nil {
		return 0, 0, err
	}
	if len(inputs) == 0 || inputs[0].Cols != net.InputDim() {
		return 0, 0, fmt.Errorf("no batch input of width %d", net.InputDim())
	}
	b := batchPerWorker
	st := net.NewState(b)
	labels := make([]float32, b)
	for i := range labels {
		labels[i] = float32(i % 2)
	}
	dLogit := make([]float32, b)
	grads := make([]float32, net.ParamCount())
	// Five windows, each at least one pass over the batches; the median
	// window's time per sample resists a window that was descheduled.
	var per []float64
	for win := 0; win < 5; win++ {
		n := 0
		start := time.Now()
		for n < len(inputs) || time.Since(start) < layerTime/5 {
			logits := net.Forward(st, inputs[n%len(inputs)], b)
			nn.BCEWithLogits(logits, labels, dLogit)
			net.Backward(st, dLogit)
			net.Grads(st, grads)
			n++
		}
		per = append(per, time.Since(start).Seconds()/float64(n*b))
	}
	m := median(per)
	return m * 1e6, net.FLOPsPerSample() / m / 1e9, nil
}

// readOptions are the Read settings of the protocol systems.Build gives
// each system the workloads use: graph-bounded for het-gmp, BSP for het-mp.
func readOptions(s systems.System) (embed.ReadOptions, error) {
	p := consistency.BSP
	if s == systems.HETGMP {
		p = consistency.GraphBounded
	}
	c, err := consistency.Resolve(p, staleness)
	return embed.ReadOptions{Staleness: c.Staleness, InterCheck: c.InterCheck, Normalize: c.Normalize}, err
}

// benchEmbed replays one epoch of the workload's batches, worker by worker
// as the partition assigns them, on a fresh table with the workload's
// storage layout: Read, Update with a constant gradient, then one Commit
// per iteration. It returns the cost of each call per row read.
func benchEmbed(w workload, train *dataset.Dataset, assign *partition.Assignment, ro embed.ReadOptions, dir string) (readNs, updNs, commitNs float64, err error) {
	coldDir, err := os.MkdirTemp(dir, "embed-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(coldDir)
	cfg := embed.Config{
		NumFeatures: train.NumFeatures, Dim: w.Dim, Assign: assign,
		Freq: train.FeatureFrequencies(), Seed: trainSeed,
		Optimizer: optim.NewAdaGrad(0.05, train.NumFeatures, w.Dim),
	}
	if w.HotFrac > 0 {
		cfg.Tiers = w.tiers(train.NumFeatures, filepath.Join(coldDir, "cold"))
	}
	tbl, err := embed.NewTable(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer tbl.Close()

	parts := make([][]int32, assign.N)
	for s, p := range assign.SampleOf {
		parts[p] = append(parts[p], int32(s))
	}
	fields := train.NumFields
	dst := tensor.NewMatrix(batchPerWorker*fields, w.Dim)
	grads := tensor.NewMatrix(batchPerWorker*fields, w.Dim)
	for i := range grads.Data {
		grads.Data[i] = 1e-3
	}
	stamp := make([]int, train.NumFeatures)
	uniq := make([]int32, 0, batchPerWorker*fields)
	var tRead, tUpd, tCommit time.Duration
	rows := 0
	for it, gen := 0, 0; ; it++ {
		active := false
		for p, samples := range parts {
			lo := it * batchPerWorker
			if lo >= len(samples) {
				continue
			}
			active = true
			hi := min(lo+batchPerWorker, len(samples))
			gen++
			uniq = uniq[:0]
			for _, s := range samples[lo:hi] {
				for _, x := range train.Samples[s].Features {
					if stamp[x] != gen {
						stamp[x] = gen
						uniq = append(uniq, x)
					}
				}
			}
			start := time.Now()
			tbl.Read(p, uniq, dst, ro)
			tRead += time.Since(start)
			g := &tensor.Matrix{Rows: len(uniq), Cols: w.Dim, Data: grads.Data[:len(uniq)*w.Dim]}
			start = time.Now()
			tbl.Update(p, uniq, g, ro.Staleness)
			tUpd += time.Since(start)
			rows += len(uniq)
		}
		if !active {
			break
		}
		start := time.Now()
		tbl.Commit()
		tCommit += time.Since(start)
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(rows) }
	return per(tRead), per(tUpd), per(tCommit), nil
}

// checkpointRates times SaveCheckpoint to a new file and LoadCheckpoint
// from it on the trained trainer, three times each, and returns the median
// MB/s. path is the run's own checkpoint, whose size all saves share.
func checkpointRates(tr *engine.Trainer, path string) (write, read float64, err error) {
	var ws, rs []float64
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("%s.%d", path, i)
		start := time.Now()
		if err := saveCheckpoint(tr, p); err != nil {
			return 0, 0, err
		}
		ws = append(ws, time.Since(start).Seconds())
		start = time.Now()
		f, err := os.Open(p)
		if err != nil {
			return 0, 0, err
		}
		err = tr.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			return 0, 0, err
		}
		rs = append(rs, time.Since(start).Seconds())
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	mb := float64(st.Size()) / 1e6
	return mb / median(ws), mb / median(rs), nil
}

// benchWire frames and parses payloads of the sizes a run sent, through
// comm.EncodeFrame and comm.DecodeFrame, and returns MB/s of frame bytes.
func benchWire(sizes []int) (encMBs, decMBs float64, err error) {
	if len(sizes) == 0 {
		return 0, 0, fmt.Errorf("no messages to replay")
	}
	payloads := make([][]byte, len(sizes))
	for i, n := range sizes {
		payloads[i] = make([]byte, n)
	}
	frames := make([][]byte, len(sizes))
	var enc, dec time.Duration
	var bytes int64
	start := time.Now()
	for time.Since(start) < layerTime {
		t0 := time.Now()
		for i, p := range payloads {
			if frames[i], err = comm.EncodeFrame(1, &comm.Message{Type: comm.MsgGradPush, Seq: 1, Payload: p}); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		for _, f := range frames {
			if _, _, _, err := comm.DecodeFrame(f); err != nil {
				return 0, 0, err
			}
			bytes += int64(len(f))
		}
		enc += t1.Sub(t0)
		dec += time.Since(t1)
	}
	mb := float64(bytes) / 1e6
	return mb / enc.Seconds(), mb / dec.Seconds(), nil
}

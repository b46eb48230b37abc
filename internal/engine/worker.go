package engine

import (
	"hetgmp/internal/comm"
	"hetgmp/internal/embed"
	"hetgmp/internal/nn"
	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// worker is one simulated GPU's training state. During the concurrent phase
// of an iteration a worker touches only its own fields, its embedding-table
// shard, and read-only shared state.
type worker struct {
	id      int
	t       *Trainer
	samples []int32
	order   []int32
	cursor  int
	rng     *xrand.RNG

	state nn.State

	// Batch dedup runs per iteration over every (sample, field) edge, so it
	// is a hot path: instead of a hash map cleared each batch, a dense
	// generation-stamped index keyed by feature id — uniqSlot[x] is x's slot
	// in uniq iff uniqGen[x] equals the current batch's generation. Bumping
	// uniqGen invalidates the whole index in O(1) and the lookups are two
	// array reads with no hashing or allocation.
	uniqGen  []uint32
	uniqSlot []int32
	gen      uint32

	// The current batch, filled by prepBatch: its unique features, labels
	// and per-(sample,field) index into uniq.
	uniq     []int32
	labels   []float32
	batchIdx []int32 // per (sample,field): index into uniq

	embBuf  *tensor.Matrix // unique embeddings gathered by Read
	gradBuf *tensor.Matrix // per-unique embedding gradients
	input   *tensor.Matrix // batch × (fields·dim)
	dLogit  []float32

	// Per-iteration outputs.
	iterTime    float64
	iterCompute float64
	// iterReadComm and iterUpdateComm split the iteration's communication
	// time into the gather (embed fetch) and scatter (gradient push) sides,
	// so the tracer can lay the phases out separately.
	iterReadComm   float64
	iterUpdateComm float64
	iterLoss       float64
	iterSamples    int
	// iterHostBytes[h] counts this iteration's parameter-server traffic
	// with host h (PS mode only); the engine turns the per-host totals
	// into queueing delay at the shared host link.
	iterHostBytes []int64
	// iterNICOut/iterNICIn count this iteration's cross-node bytes leaving
	// and entering this worker. All GPUs of a machine share one NIC, so
	// the engine aggregates these per node into a queueing delay — the
	// effect that caps multi-node scaling in the paper's Figure 10.
	iterNICOut, iterNICIn int64

	// Per-iteration protocol counters. Distributed execution ships them in
	// the iteration summary and replays them onto ghost workers, so they
	// are kept per iteration and folded into the tot* aggregates by
	// accumulateStats.
	iterLocalPrimary, iterLocalFresh                int64
	iterSyncedIntra, iterSyncedInter                int64
	iterRemoteReads                                 int64
	iterLocalSecondary, iterRemotePush, iterFlushed int64

	// distReadPer/distUpdPer capture copies of the Read/Update per-owner
	// traffic for the distributed summary (the table's PerOwner slices are
	// per-shard scratch reused between calls). Populated only in
	// distributed mode.
	distReadPer, distUpdPer []embed.OwnerTraffic

	// Aggregate protocol counters.
	totLocalPrimary, totLocalFresh             int64
	totSyncedIntra, totSyncedInter             int64
	totRemoteReads                             int64
	totLocalSecondary, totRemotePush, totFlush int64
}

// accumulateStats folds the iteration's protocol counters into the run
// aggregates.
func (w *worker) accumulateStats() {
	w.totLocalPrimary += w.iterLocalPrimary
	w.totLocalFresh += w.iterLocalFresh
	w.totSyncedIntra += w.iterSyncedIntra
	w.totSyncedInter += w.iterSyncedInter
	w.totRemoteReads += w.iterRemoteReads
	w.totLocalSecondary += w.iterLocalSecondary
	w.totRemotePush += w.iterRemotePush
	w.totFlush += w.iterFlushed
}

// resetIterStats clears the per-iteration protocol counters.
func (w *worker) resetIterStats() {
	w.iterLocalPrimary, w.iterLocalFresh = 0, 0
	w.iterSyncedIntra, w.iterSyncedInter = 0, 0
	w.iterRemoteReads = 0
	w.iterLocalSecondary, w.iterRemotePush, w.iterFlushed = 0, 0, 0
}

func newWorker(id int, t *Trainer, samples []int32, rng *xrand.RNG) *worker {
	cfg := &t.cfg
	fields := cfg.Train.NumFields
	b := cfg.BatchPerWorker
	w := &worker{
		id:       id,
		t:        t,
		samples:  samples,
		rng:      rng,
		state:    t.model.NewState(b),
		uniqGen:  make([]uint32, cfg.Train.NumFeatures),
		uniqSlot: make([]int32, cfg.Train.NumFeatures),
		uniq:     make([]int32, 0, b*fields),
		labels:   make([]float32, b),
		batchIdx: make([]int32, b*fields),
		embBuf:   tensor.NewMatrix(b*fields, cfg.Dim),
		gradBuf:  tensor.NewMatrix(b*fields, cfg.Dim),
		input:    tensor.NewMatrix(b, fields*cfg.Dim),
		dLogit:   make([]float32, b),
	}
	if cfg.PS != nil {
		w.iterHostBytes = make([]int64, cfg.PS.Hosts)
	}
	w.order = make([]int32, len(samples))
	copy(w.order, samples)
	return w
}

// startEpoch reshuffles the worker's local shard.
func (w *worker) startEpoch() {
	w.cursor = 0
	w.rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
}

// hasWork reports whether any local samples remain this epoch.
func (w *worker) hasWork() bool { return w.cursor < len(w.order) }

// resetIdle clears every per-iteration counter of a worker that runs no
// batch this iteration. The NIC counters matter most: nicQueueDelay sums
// them after the barrier, so a count left over from the worker's last busy
// iteration would keep charging its node's NIC for traffic that already
// gated an earlier barrier.
func (w *worker) resetIdle() {
	w.iterTime = 0
	w.iterCompute = 0
	w.iterReadComm = 0
	w.iterUpdateComm = 0
	w.iterLoss = 0
	w.iterSamples = 0
	w.iterNICOut, w.iterNICIn = 0, 0
	w.resetIterStats()
	for h := range w.iterHostBytes {
		w.iterHostBytes[h] = 0
	}
}

// prepBatch cuts the next mini-batch from the epoch order, advances the
// cursor, gathers its labels and deduplicates its features — the paper's
// "local reduction" — into uniq and batchIdx. It returns the batch size.
func (w *worker) prepBatch() int {
	cfg := &w.t.cfg
	end := min(w.cursor+cfg.BatchPerWorker, len(w.order))
	batch := w.order[w.cursor:end]
	w.cursor = end
	fields := cfg.Train.NumFields
	w.gen++
	if w.gen == 0 {
		// Generation counter wrapped: old stamps become ambiguous, so
		// invalidate them all once and restart from 1.
		clear(w.uniqGen)
		w.gen = 1
	}
	w.uniq = w.uniq[:0]
	for r, si := range batch {
		s := &cfg.Train.Samples[si]
		w.labels[r] = s.Label
		for f, x := range s.Features {
			if w.uniqGen[x] != w.gen {
				w.uniqGen[x] = w.gen
				w.uniqSlot[x] = int32(len(w.uniq))
				w.uniq = append(w.uniq, x)
			}
			w.batchIdx[r*fields+f] = w.uniqSlot[x]
		}
	}
	return len(batch)
}

// runIteration processes one mini-batch: prep (dedup/labels) → gather
// (Read) → forward → loss → backward → scatter (Update), charging simulated
// time for each stage.
func (w *worker) runIteration() {
	cfg := &w.t.cfg
	bs := w.prepBatch()
	w.iterSamples = bs
	w.iterNICOut, w.iterNICIn = 0, 0
	w.resetIterStats()
	for h := range w.iterHostBytes {
		w.iterHostBytes[h] = 0
	}
	fields := cfg.Train.NumFields
	dim := cfg.Dim

	// Gather embeddings under the consistency protocol.
	var readComm float64
	if cfg.PS != nil {
		readComm = w.psRead(bs)
	} else {
		stats := w.t.table.Read(w.id, w.uniq, w.embBuf, embed.ReadOptions{
			Staleness:  cfg.Staleness,
			InterCheck: cfg.InterCheck,
			Normalize:  cfg.Normalize,
		})
		w.iterLocalPrimary = int64(stats.LocalPrimary)
		w.iterLocalFresh = int64(stats.LocalFresh)
		w.iterSyncedIntra = int64(stats.SyncedIntra)
		w.iterSyncedInter = int64(stats.SyncedInter)
		w.iterRemoteReads = int64(stats.RemoteReads)
		if w.t.dist != nil {
			// PerOwner aliases the shard's scratch, which the Update below
			// reuses — the summary needs a stable copy.
			w.distReadPer = append(w.distReadPer[:0], stats.PerOwner...)
		}
		readComm = w.chargeOwnerTraffic(stats.PerOwner)
	}

	// Build the dense input: per sample, concatenate its field embeddings.
	for r := 0; r < bs; r++ {
		row := w.input.Row(r)
		for f := 0; f < fields; f++ {
			src := w.embBuf.Row(int(w.batchIdx[r*fields+f]))
			copy(row[f*dim:(f+1)*dim], src)
		}
	}

	// Forward / loss / backward, through the batch-parallel wrapper.
	logits := w.t.model.Forward(w.state, w.input, bs)
	w.iterLoss = nn.BCEWithLogits(logits, w.labels[:bs], w.dLogit)
	dInput := w.t.model.Backward(w.state, w.dLogit[:bs])
	w.t.model.Grads(w.state, w.t.denseGrad[w.id])

	// Scatter-add embedding gradients per unique feature.
	gb := &tensor.Matrix{Rows: len(w.uniq), Cols: dim, Data: w.gradBuf.Data[:len(w.uniq)*dim]}
	gb.Zero()
	for r := 0; r < bs; r++ {
		drow := dInput.Row(r)
		for f := 0; f < fields; f++ {
			dst := gb.Row(int(w.batchIdx[r*fields+f]))
			src := drow[f*dim : (f+1)*dim]
			for i, v := range src {
				dst[i] += v
			}
		}
	}

	// Apply updates under the protocol.
	var updComm float64
	if cfg.PS != nil {
		updComm = w.psUpdate(gb)
	} else {
		ustats := w.t.table.Update(w.id, w.uniq, gb, cfg.Staleness)
		w.iterLocalSecondary = int64(ustats.LocalSecondary)
		w.iterRemotePush = int64(ustats.RemotePush)
		w.iterFlushed = int64(ustats.FlushedPending)
		if w.t.dist != nil {
			w.distUpdPer = append(w.distUpdPer[:0], ustats.PerOwner...)
		}
		updComm = w.chargeOwnerTraffic(ustats.PerOwner)
	}
	w.iterReadComm = readComm
	w.iterUpdateComm = updComm
	commTime := readComm + updComm

	// Simulated compute time: model FLOPs plus embedding gather/update,
	// at the effective (not peak) GPU rate.
	flops := float64(bs)*cfg.Model.FLOPsPerSample() + float64(len(w.uniq)*dim)*8
	compute := flops / cfg.Topo.EffectiveFlops()
	w.iterCompute = compute
	// Overlap model: linear interpolation between serial (compute+comm)
	// and perfectly pipelined (max of the two).
	serial := compute + commTime
	pipelined := compute
	if commTime > pipelined {
		pipelined = commTime
	}
	w.iterTime = cfg.Overlap*pipelined + (1-cfg.Overlap)*serial
	w.accumulateStats()
}

// chargeOwnerTraffic prices one Read/Update's per-owner traffic against the
// fabric and returns this worker's added communication time. Traffic to one
// owner is batched into one message per direction, as the paper's NCCL
// implementation does.
func (w *worker) chargeOwnerTraffic(per []embed.OwnerTraffic) float64 {
	var dt float64
	vecBytes := w.t.table.BytesPerVector()
	crossNode := func(owner int) bool {
		return w.t.cfg.Topo.NodeOf(owner) != w.t.cfg.Topo.NodeOf(w.id)
	}
	for owner, tr := range per {
		if owner == w.id {
			continue
		}
		// Outbound: indexes+clocks and write-back gradients.
		var out [3]int64
		out[comm.CatMeta] = int64(tr.MetaKeys) * embed.BytesPerKey
		out[comm.CatEmbedding] = int64(tr.FlushVecs) * vecBytes
		dt += w.t.fabric.TransferBatch(w.id, owner, out)
		// Inbound: refreshed/fetched embedding vectors.
		var in [3]int64
		in[comm.CatEmbedding] = int64(tr.SyncVecs) * vecBytes
		dt += w.t.fabric.TransferBatchRecv(owner, w.id, in)
		if crossNode(owner) {
			w.iterNICOut += out[0] + out[1] + out[2]
			w.iterNICIn += in[0] + in[1] + in[2]
		}
	}
	return dt
}

// Parameter-server software overheads: the RPC stack, request dispatch and
// CPU-side (de)serialisation that a TensorFlow-style PS pays per request and
// NCCL peer-to-peer transfers do not. Calibrated to the order of gRPC
// round-trip costs on the paper's hardware generation.
const (
	psReadOverhead   = 120e-6 // seconds per pull request
	psUpdateOverhead = 60e-6  // seconds per push request
)

// psRead models the parameter-server gather: every unique embedding is
// fetched from its host shard over the CPU link. Values still come from
// the table's primaries so learning remains real.
func (w *worker) psRead(bs int) float64 {
	cfg := &w.t.cfg
	var dt float64
	perHost := make([]int, cfg.PS.Hosts)
	for i, x := range w.uniq {
		copy(w.embBuf.Row(i), w.t.table.PrimaryRow(x))
		perHost[w.t.psHome[x]]++
	}
	vecBytes := w.t.table.BytesPerVector()
	for h, cnt := range perHost {
		if cnt == 0 {
			continue
		}
		dt += w.t.fabric.HostTransfer(w.id, h, int64(cnt)*embed.BytesPerKey, comm.CatMeta)
		dt += w.t.fabric.HostTransfer(w.id, h, int64(cnt)*vecBytes, comm.CatEmbedding)
		w.iterHostBytes[h] += int64(cnt) * (embed.BytesPerKey + vecBytes)
		dt += psReadOverhead
	}
	_ = bs
	return dt
}

// psUpdate pushes gradients to the PS shards and queues them for commit.
func (w *worker) psUpdate(gb *tensor.Matrix) float64 {
	cfg := &w.t.cfg
	var dt float64
	perHost := make([]int, cfg.PS.Hosts)
	for i, x := range w.uniq {
		perHost[w.t.psHome[x]]++
		w.t.table.QueuePrimary(w.id, x, gb.Row(i))
	}
	vecBytes := w.t.table.BytesPerVector()
	var applyFlops float64
	for h, cnt := range perHost {
		if cnt == 0 {
			continue
		}
		dt += w.t.fabric.HostTransfer(w.id, h, int64(cnt)*vecBytes, comm.CatEmbedding)
		w.iterHostBytes[h] += int64(cnt) * vecBytes
		applyFlops += float64(cnt) * float64(cfg.Dim) * 4
		dt += psUpdateOverhead
	}
	// The CPU host applies the sparse updates.
	dt += applyFlops / cfg.Topo.HostFlops
	return dt
}

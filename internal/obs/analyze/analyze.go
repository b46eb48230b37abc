// Package analyze turns raw run telemetry — obs.Tracer spans, the metrics
// registry snapshot, the fabric's traffic ledgers and the partitioner's
// round history — into a typed RunReport: the machine-readable form of the
// decompositions the paper argues from. Where PR 3 produced data a human
// inspects in Perfetto, this package produces the interpretation itself:
//
//   - critical-path decomposition per worker and per epoch (compute-bound
//     vs comm-bound vs staleness-wait attribution, Section 6 / Figure 1),
//   - overlap efficiency — the fraction of embedding communication hidden
//     under compute by the engine's overlap model (Section 6,
//     "Asynchronous Execution"), for both the PS and AllReduce branches,
//   - straggler/skew detection across workers,
//   - the per-link traffic heatmap with its hottest links and categories
//     (Figure 9b / Eq. 2–5),
//   - p50/p95/p99 simulated-time quantiles estimated from the fixed-bucket
//     histograms (obs.Metric.Quantile).
//
// Reports are produced by the engine (Config.Report → Result.Report), by
// `hetgmp-train -report`, and post-hoc by `hetgmp-obs analyze` from exported
// trace+metrics files. Diff (diff.go) compares two reports under explicit
// tolerances so CI can refuse silent performance drift.
package analyze

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hetgmp/internal/comm"
	"hetgmp/internal/obs"
	"hetgmp/internal/partition"
)

// Schema is the RunReport schema version; Diff refuses to compare reports
// with different schemas.
const Schema = 1

// Input is everything the analyzer consumes. Spans and Metrics are
// required; Fabric, Rounds and the scalar run facts are optional and are
// reconstructed from Metrics (or the spans themselves) when absent — the
// post-hoc CLI path has only the exported files.
type Input struct {
	// Spans is the tracer's span set (obs.Tracer.Spans or obs.ParseChrome).
	Spans []obs.Span
	// Metrics is the run's registry snapshot.
	Metrics obs.Snapshot
	// Fabric, when non-nil, supplies the per-link traffic matrix directly;
	// otherwise it is rebuilt from the fabric.link.* snapshot metrics.
	Fabric *comm.Snapshot
	// Rounds is the partitioner's per-round history, when the run
	// partitioned with Hybrid.
	Rounds []partition.RoundStat

	// TotalSimSeconds is the run's simulated duration; 0 falls back to the
	// span extent. Iterations falls back to the iteration histogram count.
	TotalSimSeconds float64
	Iterations      int
	// PS labels the run's dense branch ("ps" vs "allreduce") in the
	// overlap stat.
	PS bool

	// TopLinks caps the traffic heatmap's hottest-link list (default 10).
	TopLinks int
	// StragglerThreshold flags workers whose busy time exceeds the mean by
	// this fraction (default 0.2, i.e. 20% over the mean).
	StragglerThreshold float64

	// Meta stamps the report with run identity; see CollectMeta.
	Meta Meta

	// Transport, when non-nil, attaches the rank's real-transport byte
	// ledger (distributed runs only; see TransportFromLedger).
	Transport *TransportStat

	// Capacity, when non-nil, attaches the run's measured memory footprint
	// and hot-set telemetry (see BuildCapacity).
	Capacity *CapacityStat
}

// PhaseStat aggregates one phase across the whole run.
type PhaseStat struct {
	Spans   int     `json:"spans"`
	Seconds float64 `json:"seconds"`
	// Share is this phase's fraction of the summed span time across all
	// phases — the quantity the regression gate watches.
	Share float64 `json:"share"`
}

// WorkerStat is one worker's critical-path decomposition.
type WorkerStat struct {
	Worker int `json:"worker"`
	// BusySeconds sums the productive phases (embed-fetch, compute,
	// grad-push, allreduce, flush); WaitSeconds sums staleness-wait and
	// barrier-wait.
	BusySeconds float64 `json:"busy_seconds"`
	WaitSeconds float64 `json:"wait_seconds"`
	// Phases maps each phase name to this worker's summed seconds.
	Phases map[string]float64 `json:"phases"`
	// Bound classifies the worker: "compute-bound", "comm-bound" or
	// "wait-bound" by its largest attribution.
	Bound string `json:"bound"`
}

// EpochStat is one epoch's phase decomposition.
type EpochStat struct {
	Epoch int `json:"epoch"`
	// Seconds is the epoch's simulated extent (last span end − first span
	// start); Phases the per-phase sums within it.
	Seconds float64            `json:"seconds"`
	Phases  map[string]float64 `json:"phases"`
}

// OverlapStat quantifies the Section 6 communication/compute overlap: of
// the serial embedding-communication demand, how much the overlap model hid
// under compute. Derived from the engine.overlap.* counters, which record
// exact serial and hidden simulated nanoseconds per worker-iteration.
type OverlapStat struct {
	// Branch is "ps" or "allreduce" — which dense-synchronisation branch
	// the run used.
	Branch string `json:"branch"`
	// Efficiency = HiddenSeconds / SerialCommSeconds ∈ [0,1]; 0 when the
	// run had no embedding communication.
	Efficiency        float64 `json:"efficiency"`
	HiddenSeconds     float64 `json:"hidden_seconds"`
	SerialCommSeconds float64 `json:"serial_comm_seconds"`
}

// StragglerStat reports busy-time skew across workers.
type StragglerStat struct {
	// MaxOverMean is the slowest worker's busy time over the mean busy
	// time; 1 means perfectly balanced.
	MaxOverMean float64 `json:"max_over_mean"`
	Slowest     int     `json:"slowest_worker"`
	// Flagged lists workers whose busy time exceeds the mean by more than
	// the configured threshold.
	Flagged []int `json:"flagged,omitempty"`
}

// LinkStat is one entry of the traffic heatmap.
type LinkStat struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Bytes int64   `json:"bytes"`
	Share float64 `json:"share"`
}

// TrafficStat is the per-link / per-category traffic decomposition
// (Figure 8 / Figure 9b in queryable form).
type TrafficStat struct {
	TotalBytes int64            `json:"total_bytes"`
	Categories map[string]int64 `json:"categories"`
	// TopLinks lists the hottest src→dst links, descending by bytes.
	TopLinks []LinkStat `json:"top_links,omitempty"`
}

// TransportLink is one peer link's share of a rank's wire ledger.
type TransportLink struct {
	Peer      int   `json:"peer"`
	SentMsgs  int64 `json:"sent_msgs"`
	SentBytes int64 `json:"sent_bytes"`
	RecvMsgs  int64 `json:"recv_msgs"`
	RecvBytes int64 `json:"recv_bytes"`
}

// TransportStat is one rank's real-transport byte ledger: per-message-type
// totals plus the per-peer link breakdown. Unlike every other block in a
// RunReport this measures *real* wire traffic, not the simulated fabric —
// MergeCluster cross-checks the two. Maps hold only message types with
// traffic; Links only peers with traffic.
type TransportStat struct {
	Rank      int              `json:"rank"`
	World     int              `json:"world_size"`
	SentMsgs  map[string]int64 `json:"sent_msgs,omitempty"`
	SentBytes map[string]int64 `json:"sent_bytes,omitempty"`
	RecvMsgs  map[string]int64 `json:"recv_msgs,omitempty"`
	RecvBytes map[string]int64 `json:"recv_bytes,omitempty"`
	Links     []TransportLink  `json:"links,omitempty"`
}

// TotalSent sums messages and bytes over all types.
func (t *TransportStat) TotalSent() (msgs, bytes int64) {
	for _, v := range t.SentMsgs {
		msgs += v
	}
	for _, v := range t.SentBytes {
		bytes += v
	}
	return
}

// TotalRecv sums messages and bytes over all types.
func (t *TransportStat) TotalRecv() (msgs, bytes int64) {
	for _, v := range t.RecvMsgs {
		msgs += v
	}
	for _, v := range t.RecvBytes {
		bytes += v
	}
	return
}

// Link returns the entry for the given peer (zero value when absent).
func (t *TransportStat) Link(peer int) TransportLink {
	for _, l := range t.Links {
		if l.Peer == peer {
			return l
		}
	}
	return TransportLink{Peer: peer}
}

// TransportFromLedger converts a transport's end-of-run ledger into the
// report form: per-type entries only where traffic flowed, links only for
// peers with traffic.
func TransportFromLedger(rank, world int, st comm.Stats, links []comm.LinkStats) *TransportStat {
	ts := &TransportStat{
		Rank: rank, World: world,
		SentMsgs:  make(map[string]int64),
		SentBytes: make(map[string]int64),
		RecvMsgs:  make(map[string]int64),
		RecvBytes: make(map[string]int64),
	}
	for t := comm.MsgType(0); int(t) < comm.NumMsgTypes; t++ {
		name := t.String()
		if st.SentMsgs[t] > 0 {
			ts.SentMsgs[name] = st.SentMsgs[t]
			ts.SentBytes[name] = st.SentBytes[t]
		}
		if st.RecvMsgs[t] > 0 {
			ts.RecvMsgs[name] = st.RecvMsgs[t]
			ts.RecvBytes[name] = st.RecvBytes[t]
		}
	}
	for _, l := range links {
		if l.SentMsgs == 0 && l.RecvMsgs == 0 {
			continue
		}
		ts.Links = append(ts.Links, TransportLink{
			Peer:      l.Peer,
			SentMsgs:  l.SentMsgs,
			SentBytes: l.SentBytes,
			RecvMsgs:  l.RecvMsgs,
			RecvBytes: l.RecvBytes,
		})
	}
	return ts
}

// PartitionRound mirrors partition.RoundStat with JSON-friendly units.
type PartitionRound struct {
	Round          int     `json:"round"`
	RemoteAccesses int64   `json:"remote_accesses"`
	SampleMoves    int64   `json:"sample_moves"`
	FeatureMoves   int64   `json:"feature_moves"`
	CommTotal      float64 `json:"comm_total"`
	WallSeconds    float64 `json:"wall_seconds"`
}

// RunReport is the analyzer's typed output — every field maps to a paper
// claim (see DESIGN.md §11).
type RunReport struct {
	Meta Meta `json:"meta"`

	TotalSimSeconds float64 `json:"total_sim_seconds"`
	Iterations      int     `json:"iterations"`

	Phases     map[string]PhaseStat `json:"phases"`
	Workers    []WorkerStat         `json:"workers"`
	Epochs     []EpochStat          `json:"epochs"`
	Overlap    OverlapStat          `json:"overlap"`
	Stragglers StragglerStat        `json:"stragglers"`
	Traffic    TrafficStat          `json:"traffic"`
	// Transport is present only for distributed runs: this rank's real
	// wire ledger. Additive and optional, so Schema is unchanged.
	Transport *TransportStat `json:"transport,omitempty"`
	// Capacity is present when the run measured its memory footprint and
	// hot-set telemetry. Additive and optional, so Schema is unchanged.
	Capacity  *CapacityStat              `json:"capacity,omitempty"`
	Quantiles map[string]obs.QuantileSet `json:"quantiles,omitempty"`
	Partition []PartitionRound           `json:"partition,omitempty"`
}

// waitPhases are the phase names counted as wait rather than busy time.
func isWaitPhase(name string) bool {
	return name == obs.PhaseWait.String() || name == obs.PhaseBarrier.String()
}

func isComputePhase(name string) bool { return name == obs.PhaseCompute.String() }

// Analyze builds a RunReport from one run's telemetry. It fails only on
// inputs no report can be built from (no spans at all); every optional
// input degrades gracefully.
func Analyze(in Input) (*RunReport, error) {
	if len(in.Spans) == 0 {
		return nil, fmt.Errorf("analyze: no spans to analyze (was the tracer attached?)")
	}
	if in.TopLinks <= 0 {
		in.TopLinks = 10
	}
	if in.StragglerThreshold <= 0 {
		in.StragglerThreshold = 0.2
	}
	in.Meta.Schema = Schema

	rep := &RunReport{
		Meta:            in.Meta,
		TotalSimSeconds: in.TotalSimSeconds,
		Iterations:      in.Iterations,
		Phases:          make(map[string]PhaseStat),
		Quantiles:       make(map[string]obs.QuantileSet),
	}

	// Phase totals, per-worker and per-epoch sums, span extent — one pass.
	type workerAgg struct {
		busy, wait float64
		phases     map[string]float64
	}
	workers := make(map[int]*workerAgg)
	type epochAgg struct {
		minStart, maxEnd float64
		phases           map[string]float64
	}
	epochs := make(map[int]*epochAgg)
	var grand float64
	var extentEnd float64
	for _, s := range in.Spans {
		ps := rep.Phases[s.Name]
		ps.Spans++
		ps.Seconds += s.Dur
		rep.Phases[s.Name] = ps
		grand += s.Dur

		w := workers[s.TID]
		if w == nil {
			w = &workerAgg{phases: make(map[string]float64)}
			workers[s.TID] = w
		}
		w.phases[s.Name] += s.Dur
		if isWaitPhase(s.Name) {
			w.wait += s.Dur
		} else {
			w.busy += s.Dur
		}

		e := epochs[s.Epoch]
		if e == nil {
			e = &epochAgg{minStart: math.Inf(1), phases: make(map[string]float64)}
			epochs[s.Epoch] = e
		}
		e.phases[s.Name] += s.Dur
		if s.Start < e.minStart {
			e.minStart = s.Start
		}
		if end := s.Start + s.Dur; end > e.maxEnd {
			e.maxEnd = end
		}
		if end := s.Start + s.Dur; end > extentEnd {
			extentEnd = end
		}
	}
	if grand > 0 {
		for name, ps := range rep.Phases {
			ps.Share = ps.Seconds / grand
			rep.Phases[name] = ps
		}
	}
	if rep.TotalSimSeconds == 0 {
		rep.TotalSimSeconds = extentEnd
	}

	// Per-worker decomposition and classification.
	wids := make([]int, 0, len(workers))
	for id := range workers {
		wids = append(wids, id)
	}
	sort.Ints(wids)
	for _, id := range wids {
		w := workers[id]
		var compute, commT float64
		for name, sec := range w.phases {
			switch {
			case isComputePhase(name):
				compute += sec
			case isWaitPhase(name):
			default:
				commT += sec
			}
		}
		bound := "compute-bound"
		if commT > compute && commT >= w.wait {
			bound = "comm-bound"
		} else if w.wait > compute && w.wait > commT {
			bound = "wait-bound"
		}
		rep.Workers = append(rep.Workers, WorkerStat{
			Worker: id, BusySeconds: w.busy, WaitSeconds: w.wait,
			Phases: w.phases, Bound: bound,
		})
	}

	// Per-epoch decomposition.
	eids := make([]int, 0, len(epochs))
	for e := range epochs {
		eids = append(eids, e)
	}
	sort.Ints(eids)
	for _, eid := range eids {
		e := epochs[eid]
		rep.Epochs = append(rep.Epochs, EpochStat{
			Epoch: eid, Seconds: e.maxEnd - e.minStart, Phases: e.phases,
		})
	}

	// Overlap efficiency from the engine's exact counters.
	rep.Overlap = overlapStat(in)

	// Straggler detection over busy time.
	rep.Stragglers = stragglerStat(rep.Workers, in.StragglerThreshold)

	// Traffic heatmap: prefer the live fabric snapshot, else rebuild from
	// the exported fabric.link.* metrics.
	rep.Traffic = trafficStat(in)

	// Real-transport wire ledger, when the run was distributed.
	rep.Transport = in.Transport

	// Measured footprint and hot-set telemetry, when the run gathered it.
	rep.Capacity = in.Capacity

	// Quantile summaries for every histogram in the snapshot.
	for _, m := range in.Metrics.Metrics {
		if m.Type == "histogram" && m.Count > 0 {
			rep.Quantiles[m.Name] = m.Quantiles()
		}
	}
	if rep.Iterations == 0 {
		if m, ok := in.Metrics.Get("engine.iteration.sim_nanos"); ok {
			rep.Iterations = int(m.Count)
		}
	}

	for _, r := range in.Rounds {
		rep.Partition = append(rep.Partition, PartitionRound{
			Round:          r.Round,
			RemoteAccesses: r.RemoteAccesses,
			SampleMoves:    r.SampleMoves,
			FeatureMoves:   r.FeatureMoves,
			CommTotal:      r.CommTotal,
			WallSeconds:    r.Elapsed.Seconds(),
		})
	}
	return rep, nil
}

// overlapStat derives the overlap efficiency from the engine.overlap.*
// counters: exact hidden vs serial communication simulated nanoseconds.
func overlapStat(in Input) OverlapStat {
	st := OverlapStat{Branch: "allreduce"}
	if in.PS {
		st.Branch = "ps"
	}
	hidden, _ := in.Metrics.Get("engine.overlap.hidden_sim_nanos")
	serial, _ := in.Metrics.Get("engine.overlap.serial_comm_sim_nanos")
	st.HiddenSeconds = float64(hidden.Value) / 1e9
	st.SerialCommSeconds = float64(serial.Value) / 1e9
	if serial.Value > 0 {
		st.Efficiency = float64(hidden.Value) / float64(serial.Value)
		if st.Efficiency < 0 {
			st.Efficiency = 0
		}
		if st.Efficiency > 1 {
			st.Efficiency = 1
		}
	}
	return st
}

func stragglerStat(workers []WorkerStat, threshold float64) StragglerStat {
	st := StragglerStat{Slowest: -1, MaxOverMean: 1}
	if len(workers) == 0 {
		return st
	}
	var sum, max float64
	for _, w := range workers {
		sum += w.BusySeconds
		if w.BusySeconds > max {
			max = w.BusySeconds
			st.Slowest = w.Worker
		}
	}
	mean := sum / float64(len(workers))
	if mean > 0 {
		st.MaxOverMean = max / mean
		for _, w := range workers {
			if w.BusySeconds > mean*(1+threshold) {
				st.Flagged = append(st.Flagged, w.Worker)
			}
		}
	}
	return st
}

func trafficStat(in Input) TrafficStat {
	ts := TrafficStat{Categories: make(map[string]int64)}
	type link struct {
		src, dst int
		bytes    int64
	}
	var links []link
	if in.Fabric != nil {
		s := in.Fabric
		n := s.NumWorkers
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if b := s.Bytes[src*n+dst]; b > 0 {
					links = append(links, link{src, dst, b})
				}
			}
		}
		bd := s.Breakdown()
		for c := comm.Category(0); c < 3; c++ {
			ts.Categories[c.String()] = bd.Bytes[c]
			ts.TotalBytes += bd.Bytes[c]
		}
	} else {
		catNames := map[string]string{
			"fabric.bytes.embedding": comm.CatEmbedding.String(),
			"fabric.bytes.meta":      comm.CatMeta.String(),
			"fabric.bytes.dense":     comm.CatDense.String(),
		}
		for _, m := range in.Metrics.Metrics {
			if cat, ok := catNames[m.Name]; ok {
				ts.Categories[cat] = m.Value
				ts.TotalBytes += m.Value
				continue
			}
			// Sscanf counts both %d verbs as scanned before it notices a
			// trailing-literal mismatch, so the suffix check is load-bearing:
			// without it fabric.link.N->M.msgs would parse as a byte count.
			if !strings.HasPrefix(m.Name, "fabric.link.") || !strings.HasSuffix(m.Name, ".bytes") {
				continue
			}
			var src, dst int
			if n, _ := fmt.Sscanf(m.Name, "fabric.link.%d->%d.bytes", &src, &dst); n == 2 {
				links = append(links, link{src, dst, m.Value})
			}
		}
	}
	var linkTotal int64
	for _, l := range links {
		linkTotal += l.bytes
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].bytes != links[j].bytes {
			return links[i].bytes > links[j].bytes
		}
		if links[i].src != links[j].src {
			return links[i].src < links[j].src
		}
		return links[i].dst < links[j].dst
	})
	if len(links) > in.TopLinks {
		links = links[:in.TopLinks]
	}
	for _, l := range links {
		share := 0.0
		if linkTotal > 0 {
			share = float64(l.bytes) / float64(linkTotal)
		}
		ts.TopLinks = append(ts.TopLinks, LinkStat{Src: l.src, Dst: l.dst, Bytes: l.bytes, Share: share})
	}
	return ts
}

// VerifySpanAccounting checks the span set's internal consistency: within
// every (worker, epoch, iteration) group, the phase durations must sum to
// the group's simulated extent — the engine lays phases out contiguously,
// so a gap or overlap means the decomposition no longer partitions the
// timeline. relTol is the allowed relative error (floating-point layout
// arithmetic; 1e-6 is ample). Used by the engine's metamorphic tests and by
// `hetgmp-obs analyze` as input validation.
func VerifySpanAccounting(spans []obs.Span, relTol float64) error {
	type key struct{ tid, epoch, iter int }
	type agg struct {
		sum      float64
		minStart float64
		maxEnd   float64
	}
	groups := make(map[key]*agg)
	for _, s := range spans {
		k := key{s.TID, s.Epoch, s.Iter}
		g := groups[k]
		if g == nil {
			g = &agg{minStart: math.Inf(1)}
			groups[k] = g
		}
		g.sum += s.Dur
		if s.Start < g.minStart {
			g.minStart = s.Start
		}
		if end := s.Start + s.Dur; end > g.maxEnd {
			g.maxEnd = end
		}
	}
	for k, g := range groups {
		extent := g.maxEnd - g.minStart
		if diff := math.Abs(g.sum - extent); diff > relTol*extent+1e-12 {
			return fmt.Errorf("analyze: worker %d epoch %d iter %d: phase durations sum to %g but span %g (|Δ|=%g)",
				k.tid, k.epoch, k.iter, g.sum, extent, diff)
		}
	}
	return nil
}

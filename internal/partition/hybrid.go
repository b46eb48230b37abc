package partition

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/invariant"
	"hetgmp/internal/obs"
	"hetgmp/internal/xrand"
)

// HybridConfig parameterises Algorithm 1 of the paper.
type HybridConfig struct {
	// Partitions is N, the number of workers.
	Partitions int
	// Rounds is T, the number of 1D+2D iterations. The paper evaluates 1,
	// 3 and 5 rounds (Table 3); gains flatten after ~5.
	Rounds int
	// Alpha, Beta and Gamma weight the balance terms δξ (sample count),
	// δx (embedding count) and δd (communication balance) of Eq. 4.
	Alpha, Beta, Gamma float64
	// Weights is the heterogeneous bandwidth cost matrix from
	// cluster.Topology.WeightMatrix; nil means uniform (homogeneous) cost,
	// Eq. 3 unweighted.
	Weights [][]float64
	// ReplicaFraction is the share of the embedding vocabulary replicated
	// as secondaries into each partition during the 2D pass; the paper uses
	// the top 1 % (Section 7, "Experimental Setting"). Zero disables the 2D
	// pass entirely, yielding the 1D-only ablation.
	ReplicaFraction float64
	// ReplicaBudget, when positive, overrides ReplicaFraction with an
	// absolute per-partition secondary count (the "GPU memory budget" of
	// Algorithm 1 line 9).
	ReplicaBudget int
	// BalanceSlack is a hard per-partition load cap at (1+slack)·avg for
	// both vertex types. The paper balances through the soft δb score
	// alone; a hard cap makes the implementation robust to any α/β/γ
	// setting (a partition at its cap is simply not a candidate).
	// Default 0.1.
	BalanceSlack float64
	Seed         uint64

	// Parallelism caps the scoring goroutines of the chunked-delta passes;
	// 0 means GOMAXPROCS. The assignment is a pure function of the graph
	// and the seed — never of Parallelism or DeltaBlock — because the
	// parallel chunks only precompute the pass-constant δc cost vectors
	// and a single reducer makes every greedy decision in canonical order
	// against live balance state (see hybrid_parallel.go).
	Parallelism int
	// DeltaBlock is the number of vertices whose δc vectors are
	// precomputed per scoring wave — a streaming-granularity / memory
	// knob (block × Partitions float64s) with no effect on the output.
	// 0 picks a size proportional to the vertex set.
	DeltaBlock int
	// CheckInvariants enables partition-accounting checks (maintained
	// per-partition load/communication totals vs. from-scratch
	// recomputation at round boundaries) even outside `go test`.
	CheckInvariants bool
	// Obs, when non-nil, receives per-round partitioner metrics (Algorithm 1
	// progression: remote-access improvement, move counts, pass timings).
	// All metrics are emitted once per round from the single-threaded round
	// loop; nothing touches the parallel scoring goroutines.
	Obs *obs.Registry
}

// DefaultHybridConfig returns the paper's settings for n partitions:
// 5 rounds, top-1% replication, and balance weights that keep both vertex
// types within a few percent of even.
func DefaultHybridConfig(n int) HybridConfig {
	return HybridConfig{
		Partitions:      n,
		Rounds:          5,
		Alpha:           1.0,
		Beta:            1.0,
		Gamma:           0.5,
		ReplicaFraction: 0.01,
		BalanceSlack:    0.1,
		Seed:            1,
	}
}

// Validate reports configuration errors.
func (c *HybridConfig) Validate() error {
	switch {
	case c.Partitions <= 0 || c.Partitions > MaxPartitions:
		return fmt.Errorf("partition: Partitions %d out of [1,%d]", c.Partitions, MaxPartitions)
	case c.Rounds <= 0:
		return fmt.Errorf("partition: Rounds must be positive, got %d", c.Rounds)
	case c.ReplicaFraction < 0 || c.ReplicaFraction > 1:
		return fmt.Errorf("partition: ReplicaFraction %g out of [0,1]", c.ReplicaFraction)
	case c.ReplicaBudget < 0:
		return fmt.Errorf("partition: ReplicaBudget must be non-negative, got %d", c.ReplicaBudget)
	case c.BalanceSlack < 0:
		return fmt.Errorf("partition: BalanceSlack must be non-negative, got %g", c.BalanceSlack)
	case c.Parallelism < 0:
		return fmt.Errorf("partition: Parallelism must be non-negative, got %d", c.Parallelism)
	case c.DeltaBlock < 0:
		return fmt.Errorf("partition: DeltaBlock must be non-negative, got %d", c.DeltaBlock)
	case c.Weights != nil && len(c.Weights) != c.Partitions:
		return fmt.Errorf("partition: weight matrix is %d×?, want %d×%d",
			len(c.Weights), c.Partitions, c.Partitions)
	}
	return nil
}

// RoundStat records partition quality after one full 1D+2D round, the rows
// of the paper's Table 3 ("Ours (1 round)", "Ours (3 rounds)", ...), plus
// the round's work profile: how many greedy relocations each 1D pass made
// and where the wall time went.
type RoundStat struct {
	Round          int
	RemoteAccesses int64
	Elapsed        time.Duration // cumulative wall time through this round

	// SampleMoves and FeatureMoves count the greedy relocations the round's
	// 1D passes performed; rounds converge as these approach zero.
	SampleMoves  int64
	FeatureMoves int64
	// CommTotal is Σ δc(Gi) after the round — the priced remote-access
	// objective of Eq. 3 the moves minimise.
	CommTotal float64
	// Per-pass wall time within this round.
	SamplePass    time.Duration
	FeaturePass   time.Duration
	ReplicatePass time.Duration
}

// HybridResult is the partitioner output plus per-round history.
type HybridResult struct {
	Assignment *Assignment
	Rounds     []RoundStat
}

// Hybrid runs Algorithm 1: iterative 1D edge-cut vertex assignment guided by
// the score δg = δc + δb, followed by a 2D vertex-cut pass that replicates
// the highest-δp embeddings into each partition up to the memory budget.
//
// The 1D passes run as parallel chunked-delta sweeps (see DESIGN.md): for
// each fixed block of the visit order, scoring goroutines precompute the
// pass-constant δc cost vectors concurrently, then a single reducer makes
// every greedy decision in canonical order against live balance state. The
// output is bit-identical for a fixed seed regardless of GOMAXPROCS,
// cfg.Parallelism or cfg.DeltaBlock.
//
// Note on Eq. 2's sign: the paper writes δg = δc − δb but describes δb as
// "the marginal cost of adding vertex v to partition Gi ... used to balance
// workloads". A cost must make crowded partitions less attractive under
// argmin, so this implementation adds the balance penalty: δg = δc + δb.
func Hybrid(g *bigraph.Bigraph, cfg HybridConfig) (*HybridResult, error) {
	return runHybrid(g, cfg, (*hybridState).chunkedPassSamples, (*hybridState).chunkedPassFeatures,
		func(st *hybridState, _ []int32) { st.replicateTopK() })
}

// hybridPass is one of a round's three passes over a visit order: samples,
// embeddings, or the 2D replication.
type hybridPass func(st *hybridState, order []int32)

// runHybrid is Algorithm 1's round loop with its passes supplied by the
// caller, so tests can run the sequential greedy oracle through the same
// initial state, visit orders and round accounting as Hybrid.
func runHybrid(g *bigraph.Bigraph, cfg HybridConfig, passSamples, passFeatures, replicate hybridPass) (*HybridResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	n := cfg.Partitions
	a := Random(g, n, cfg.Seed)
	counts := bigraph.NewCountTable(g, n, a.SampleOf)

	st := &hybridState{
		g:           g,
		a:           a,
		cfg:         cfg,
		counts:      counts,
		nSamp:       make([]int, n),
		nFeat:       make([]int, n),
		comm:        make([]float64, n),
		secondaries: make([][]int32, n),
		check:       invariant.Auto(cfg.CheckInvariants),
	}
	for _, p := range a.SampleOf {
		st.nSamp[p]++
	}
	for _, p := range a.PrimaryOf {
		st.nFeat[p]++
	}
	st.recomputeComm()

	// Deterministic visit orders: samples shuffled once, embeddings by
	// descending degree so the heaviest vertices choose their homes first.
	rng := xrand.New(cfg.Seed ^ 0x1d1d1d1d1d1d1d1d)
	sampleOrder := rng.Perm32(g.NumSamples)
	featOrder := make([]int32, g.NumFeatures)
	for i := range featOrder {
		featOrder[i] = int32(i)
	}
	sortFeatByDegree(featOrder, g.Degree)

	res := &HybridResult{Assignment: a}
	for t := 0; t < cfg.Rounds; t++ {
		st.sampleMoves, st.featureMoves = 0, 0
		passStart := time.Now()
		passSamples(st, sampleOrder)
		sampleDone := time.Now()
		passFeatures(st, featOrder)
		featureDone := time.Now()
		replicate(st, featOrder)
		replicateDone := time.Now()
		st.checkAccounting(t + 1)
		res.Rounds = append(res.Rounds, RoundStat{
			Round:          t + 1,
			RemoteAccesses: st.roundRemote(),
			Elapsed:        time.Since(start),
			SampleMoves:    st.sampleMoves,
			FeatureMoves:   st.featureMoves,
			CommTotal:      st.commSum,
			SamplePass:     sampleDone.Sub(passStart),
			FeaturePass:    featureDone.Sub(sampleDone),
			ReplicatePass:  replicateDone.Sub(featureDone),
		})
	}
	emitHybridMetrics(cfg.Obs, res)
	return res, nil
}

// emitHybridMetrics exports the per-round history into the registry: move
// counters, pass-time counters (wall nanoseconds — the partitioner runs
// before the simulated clock exists), and per-round remote-access gauges
// with their δ-improvement over the previous round (Table 3 progression).
func emitHybridMetrics(reg *obs.Registry, res *HybridResult) {
	if reg == nil {
		return
	}
	var prev int64
	for i, r := range res.Rounds {
		reg.Counter("partition.moves.samples").Add(0, r.SampleMoves)
		reg.Counter("partition.moves.features").Add(0, r.FeatureMoves)
		reg.Counter("partition.pass.sample_wall_nanos").Add(0, r.SamplePass.Nanoseconds())
		reg.Counter("partition.pass.feature_wall_nanos").Add(0, r.FeaturePass.Nanoseconds())
		reg.Counter("partition.pass.replicate_wall_nanos").Add(0, r.ReplicatePass.Nanoseconds())
		reg.Gauge(fmt.Sprintf("partition.round.%02d.remote_accesses", r.Round)).Set(float64(r.RemoteAccesses))
		if i > 0 {
			reg.Gauge(fmt.Sprintf("partition.round.%02d.improvement", r.Round)).Set(float64(prev - r.RemoteAccesses))
		}
		prev = r.RemoteAccesses
	}
	if n := len(res.Rounds); n > 0 {
		last := res.Rounds[n-1]
		reg.Gauge("partition.rounds").Set(float64(n))
		reg.Gauge("partition.remote_accesses").Set(float64(last.RemoteAccesses))
		reg.Gauge("partition.comm_total").Set(last.CommTotal)
	}
}

// sortFeatByDegree orders feature ids by descending degree, id ascending on
// ties — the canonical embedding visit order of both implementations.
func sortFeatByDegree(order []int32, degree []int32) {
	sort.Slice(order, func(i, j int) bool {
		di, dj := degree[order[i]], degree[order[j]]
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
}

type hybridState struct {
	g      *bigraph.Bigraph
	a      *Assignment
	cfg    HybridConfig
	counts *bigraph.CountTable
	nSamp  []int // samples per partition
	nFeat  []int // primary embeddings per partition
	comm   []float64
	// commSum is Σ comm[i], maintained incrementally by moveSample and
	// moveFeature so the per-vertex average needs no O(N) rescan.
	commSum float64
	// secondaries[i] lists the embeddings currently replicated on
	// partition i, maintained by the 2D pass so clearing last round's
	// choices needs no O(F) sweep over the replica bitsets.
	secondaries [][]int32
	check       *invariant.Checker

	// Per-round move counters, reset by the round loop. Only the reducer
	// (single goroutine) calls moveSample/moveFeature, so plain ints suffice.
	sampleMoves  int64
	featureMoves int64

	// Per-block δc staging the parallel scoring waves fill (see
	// hybrid_parallel.go).
	costBlock  []float64
	worstBlock []float64
}

// weight prices a fetch of an embedding primary on from by a sample on to.
func (st *hybridState) weight(from, to int) float64 {
	if from == to {
		return 0
	}
	if st.cfg.Weights == nil {
		return 1
	}
	return st.cfg.Weights[from][to]
}

// recomputeComm rebuilds the per-partition communication totals δc(Gi):
// the priced remote accesses of embeddings whose primary lives on i.
func (st *hybridState) recomputeComm() {
	st.comm = st.recomputeCommInto(st.comm)
	st.commSum = 0
	for _, c := range st.comm {
		st.commSum += c
	}
}

// recomputeCommInto computes the communication totals from scratch into dst
// (allocated when nil) without touching the maintained state — the
// ground-truth side of the partition-accounting invariant.
func (st *hybridState) recomputeCommInto(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, st.a.N)
	}
	for i := range dst {
		dst[i] = 0
	}
	for x := int32(0); int(x) < st.g.NumFeatures; x++ {
		home := st.a.PrimaryOf[x]
		row := st.counts.Row(x)
		for j, c := range row {
			if j == home || c == 0 {
				continue
			}
			dst[home] += float64(c) * st.weight(home, j)
		}
	}
	return dst
}

// commAvg returns the mean of per-partition communication in O(1) from the
// maintained sum.
func (st *hybridState) commAvg() float64 {
	return st.commSum / float64(len(st.comm))
}

// slack returns the hard balance cap slack, defaulting to 0.1.
func (st *hybridState) slack() float64 {
	if st.cfg.BalanceSlack == 0 {
		return 0.1
	}
	return st.cfg.BalanceSlack
}

// moveSample relocates sample s and incrementally maintains the count table
// and the per-partition communication totals (and their sum).
func (st *hybridState) moveSample(s int, from, to int) {
	for _, x := range st.g.SampleFeatures(s) {
		home := st.a.PrimaryOf[x]
		if home != from {
			w := st.weight(home, from)
			st.comm[home] -= w
			st.commSum -= w
		}
		if home != to {
			w := st.weight(home, to)
			st.comm[home] += w
			st.commSum += w
		}
	}
	st.counts.MoveSample(s, from, to)
	st.nSamp[from]--
	st.nSamp[to]++
	st.a.SampleOf[s] = to
	st.sampleMoves++
}

// moveFeature relocates embedding x's primary, updating communication
// totals for the source and destination partitions.
func (st *hybridState) moveFeature(x int32, from, to int) {
	row := st.counts.Row(x)
	for j, cnt := range row {
		if cnt == 0 {
			continue
		}
		if j != from {
			w := float64(cnt) * st.weight(from, j)
			st.comm[from] -= w
			st.commSum -= w
		}
		if j != to {
			w := float64(cnt) * st.weight(to, j)
			st.comm[to] += w
			st.commSum += w
		}
	}
	st.nFeat[from]--
	st.nFeat[to]++
	st.a.PrimaryOf[x] = to
	st.featureMoves++
}

// roundRemote computes the Table 3 quality metric from the count table in
// O(F·N): an edge (s, x) with s on partition j is remote iff j holds
// neither x's primary nor a secondary, and count(x, j) aggregates exactly
// those edges — the same value as Evaluate's O(E) edge sweep.
func (st *hybridState) roundRemote() int64 {
	var remote int64
	for x := int32(0); int(x) < st.g.NumFeatures; x++ {
		home := st.a.PrimaryOf[x]
		reps := st.a.replicas[x]
		for j, c := range st.counts.Row(x) {
			if c == 0 || j == home || reps.Has(j) {
				continue
			}
			remote += int64(c)
		}
	}
	return remote
}

// checkAccounting enforces the partition-accounting invariant at a round
// boundary: the incrementally maintained per-partition sample/primary loads
// and communication totals must match a from-scratch recomputation — i.e.
// the chunked-delta passes and a sequential replay of the same moves leave
// identical state. No-op when the checker is disabled.
func (st *hybridState) checkAccounting(round int) {
	ck := st.check
	if ck == nil {
		return
	}
	fail := func(detail string, part int, got, want float64) {
		ck.Fail(&invariant.Violation{
			Rule: invariant.PartitionAccounting, Component: "partition.Hybrid",
			Worker: part, Feature: -1,
			Primary: int64(got), Replica: int64(want), Bound: int64(round),
			Detail: detail,
		})
	}
	nSamp := make([]int, st.a.N)
	for _, p := range st.a.SampleOf {
		nSamp[p]++
	}
	nFeat := make([]int, st.a.N)
	for _, p := range st.a.PrimaryOf {
		nFeat[p]++
	}
	for i := 0; i < st.a.N; i++ {
		if nSamp[i] != st.nSamp[i] {
			fail(fmt.Sprintf("round %d: maintained sample load %d, recount %d", round, st.nSamp[i], nSamp[i]),
				i, float64(st.nSamp[i]), float64(nSamp[i]))
		}
		if nFeat[i] != st.nFeat[i] {
			fail(fmt.Sprintf("round %d: maintained primary load %d, recount %d", round, st.nFeat[i], nFeat[i]),
				i, float64(st.nFeat[i]), float64(nFeat[i]))
		}
	}
	if err := st.counts.VerifyRecount(st.a.SampleOf); err != nil {
		fail(fmt.Sprintf("round %d: %v", round, err), -1, 0, 0)
	}
	fresh := st.recomputeCommInto(nil)
	var freshSum float64
	for i, want := range fresh {
		freshSum += want
		if !commClose(st.comm[i], want) {
			fail(fmt.Sprintf("round %d: maintained comm[%d]=%g, recomputed %g", round, i, st.comm[i], want),
				i, st.comm[i], want)
		}
	}
	if !commClose(st.commSum, freshSum) {
		fail(fmt.Sprintf("round %d: maintained commSum=%g, recomputed %g", round, st.commSum, freshSum),
			-1, st.commSum, freshSum)
	}
	ck.Passed(invariant.PartitionAccounting)
}

// commClose compares incrementally maintained float totals against a fresh
// recomputation, tolerating the rounding drift of ~|E| additions.
func commClose(got, want float64) bool {
	diff := math.Abs(got - want)
	scale := math.Max(math.Abs(got), math.Abs(want))
	return diff <= 1e-6*scale+1e-3
}

package engine

import (
	"fmt"
	"runtime"
	"testing"

	"hetgmp/internal/cluster"
	"hetgmp/internal/nn"
	"hetgmp/internal/partition"
)

// sameResult asserts got is bit-identical to ref on everything a run
// reports: history, AUC, sim time, step norms, the traffic breakdown and
// the traffic matrix.
func sameResult(t *testing.T, label string, got, ref *Result) {
	t.Helper()
	if got.FinalAUC != ref.FinalAUC {
		t.Errorf("%s: AUC %v, reference %v", label, got.FinalAUC, ref.FinalAUC)
	}
	if got.TotalSimTime != ref.TotalSimTime {
		t.Errorf("%s: sim time %v, reference %v", label, got.TotalSimTime, ref.TotalSimTime)
	}
	if len(got.History) != len(ref.History) {
		t.Fatalf("%s: %d eval points, reference %d", label, len(got.History), len(ref.History))
	}
	for i := range ref.History {
		if got.History[i] != ref.History[i] {
			t.Errorf("%s: eval point %d = %+v, reference %+v", label, i, got.History[i], ref.History[i])
		}
	}
	if len(got.StepNorms) != len(ref.StepNorms) {
		t.Fatalf("%s: %d step norms, reference %d", label, len(got.StepNorms), len(ref.StepNorms))
	}
	for i := range ref.StepNorms {
		if got.StepNorms[i] != ref.StepNorms[i] {
			t.Errorf("%s: step norm %d = %v, reference %v", label, i, got.StepNorms[i], ref.StepNorms[i])
		}
	}
	// Byte counts are integers and exactly reproducible. The per-category
	// seconds are too: the fabric stripes its time ledger by source worker
	// and folds the stripes in fixed order at snapshot, so the float sums
	// do not depend on goroutine interleaving.
	if got.Breakdown != ref.Breakdown {
		t.Errorf("%s: traffic breakdown %+v, reference %+v", label, got.Breakdown, ref.Breakdown)
	}
	for i := range ref.TrafficMatrix {
		for j := range ref.TrafficMatrix[i] {
			if got.TrafficMatrix[i][j] != ref.TrafficMatrix[i][j] {
				t.Fatalf("%s: traffic[%d][%d] differs", label, i, j)
			}
		}
	}
}

// runAtProcs runs cfg with GOMAXPROCS set to procs.
func runAtProcs(t *testing.T, procs int, cfg Config) *Result {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	return run(t, cfg)
}

// TestDeterministicAcrossGOMAXPROCS verifies the engine's central
// concurrency contract: because workers queue all primary-side effects
// during the concurrent phase and the commit applies them in worker order,
// the persistent worker pool, chunked dense sweeps and owner-sharded commit
// produce results bit-identical to the same run at GOMAXPROCS 1, where
// every one of them degenerates to a serial walk.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	f := newFixture(t)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"sharded", func(c *Config) {
			c.Epochs = 2
			c.EvalEvery = 3
			c.TrackConvergence = true
		}},
		// The PS path: applyWorkerDense and host queueing under the pool
		// and the chunked dense apply.
		{"ps", func(c *Config) {
			c.Epochs = 2
			c.EvalEvery = 3
			c.TrackConvergence = true
			c.PS = &PSConfig{Hosts: 2}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runAtProcs(t, 1, f.config(t, tc.mutate))
			for _, procs := range []int{4, 8} {
				got := runAtProcs(t, procs, f.config(t, tc.mutate))
				sameResult(t, fmt.Sprintf("GOMAXPROCS=%d", procs), got, ref)
			}
		})
	}
}

// batchParallelModels are factories for the three CTR models the
// batch-parallel dense path must reproduce bit for bit — factories, not
// instances, because a Network carries mutable parameters and every run
// must start from the same seed weights. BatchPerWorker is raised to 160 in
// the test so every batch spans three row ranges (DefaultRangeRows = 64):
// G = 3 exercises the ascending-shard gradient reduction with a ragged
// tail, not just a single shard.
func batchParallelModels(f *fixture) map[string]func() nn.Network {
	fields := f.train.NumFields
	return map[string]func() nn.Network{
		"wdl": func() nn.Network {
			return nn.NewWDL(nn.WDLConfig{Fields: fields, Dim: 8, Hidden: []int{16}, Seed: 5})
		},
		"dcn": func() nn.Network {
			return nn.NewDCN(nn.DCNConfig{Fields: fields, Dim: 8, CrossLayers: 2, Hidden: []int{16}, Seed: 5})
		},
		"deepfm": func() nn.Network {
			return nn.NewDeepFM(nn.DeepFMConfig{Fields: fields, Dim: 8, Hidden: []int{16}, Seed: 5})
		},
	}
}

// TestBatchParallelBitIdentical gates the batch-parallel dense path: for
// all three models, the shared compute pool, per-range state shards and
// ascending-shard gradient reduction produce history, AUC, sim time and
// step norms bit-identical to the GOMAXPROCS 1 run, at GOMAXPROCS 4 and 8.
func TestBatchParallelBitIdentical(t *testing.T) {
	f := newFixture(t)
	for name, model := range batchParallelModels(f) {
		cfg := func() Config {
			return f.config(t, func(c *Config) {
				c.Model = model()
				c.BatchPerWorker = 160
				c.EvalEvery = 3
				c.TrackConvergence = true
			})
		}
		ref := runAtProcs(t, 1, cfg())
		for _, procs := range []int{4, 8} {
			got := runAtProcs(t, procs, cfg())
			sameResult(t, fmt.Sprintf("%s GOMAXPROCS=%d", name, procs), got, ref)
		}
	}
}

// TestIdleWorkerZeroNICQueueDelay is the regression test for the stale
// NIC-counter bug: a worker that goes idle right after a busy iteration
// used to keep its last iteration's cross-node byte counts, charging its
// node's NIC for traffic that had already gated an earlier barrier.
func TestIdleWorkerZeroNICQueueDelay(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	cfg := f.config(t, func(c *Config) {
		c.Topo = cluster.ClusterA(2)
		c.Assign = partition.Random(f.g, cluster.ClusterA(2).NumWorkers(), 5)
	})
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the hand-off: every worker finished a busy iteration with
	// cross-node traffic, then has no work in the next one.
	for _, w := range tr.workers {
		w.iterNICOut, w.iterNICIn = 1<<30, 1<<30
	}
	if d := tr.nicQueueDelay(); d <= 0 {
		t.Fatal("fixture is degenerate: busy NIC counters produce no queueing delay")
	}
	for _, w := range tr.workers {
		w.resetIdle()
	}
	if d := tr.nicQueueDelay(); d != 0 {
		t.Fatalf("idle workers contribute NIC queueing delay %v, want 0", d)
	}
}

// TestPoolStress drives the persistent pool through repeated short runs so
// `go test -race` covers the dispatch/complete hand-off and the parallel
// commit + dense sweeps under real concurrency.
func TestPoolStress(t *testing.T) {
	f := newFixture(t)
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	var first *Result
	for i := 0; i < 3; i++ {
		res := run(t, f.config(t, func(c *Config) { c.TrackConvergence = true }))
		if first == nil {
			first = res
			continue
		}
		if res.FinalAUC != first.FinalAUC || res.TotalSimTime != first.TotalSimTime {
			t.Fatalf("run %d diverged: AUC %v/%v, sim time %v/%v",
				i, res.FinalAUC, first.FinalAUC, res.TotalSimTime, first.TotalSimTime)
		}
	}
}

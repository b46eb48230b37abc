package embed

import (
	"runtime"
	"testing"

	"hetgmp/internal/optim"
	"hetgmp/internal/partition"
	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// commitFixture builds a table large enough that Commit crosses the
// parallel-drain spawn threshold: 8 workers, 512 features, replicas of
// every fourth feature on every worker.
func commitFixture(t *testing.T, optimizer optim.Sparse) *Table {
	t.Helper()
	const (
		workers  = 8
		features = 512
		dim      = 8
	)
	a := partition.NewAssignment(workers, 1, features)
	a.SampleOf[0] = 0
	for x := 0; x < features; x++ {
		a.PrimaryOf[x] = x % workers
		if x%4 == 0 {
			for p := 0; p < workers; p++ {
				a.AddReplica(int32(x), p)
			}
		}
	}
	tbl, err := NewTable(Config{
		NumFeatures: features, Dim: dim, Assign: a,
		Optimizer: optimizer, LocalLR: 0.1, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// driveCommitWorkload pushes a deterministic mixed workload through tbl:
// every round each worker reads, updates a batch (hitting local primaries,
// secondaries, and remote pushes), queues a few PS-style direct updates,
// and then the table commits. Each commit window queues well over
// commitSpawnThreshold updates so the parallel drain actually engages.
func driveCommitWorkload(tbl *Table, rounds int) {
	r := xrand.New(99)
	features := tbl.cfg.NumFeatures
	batch := 64
	feats := make([]int32, batch)
	grads := tensor.NewMatrix(batch, tbl.Dim())
	dst := tensor.NewMatrix(batch, tbl.Dim())
	for round := 0; round < rounds; round++ {
		for w := 0; w < tbl.Workers(); w++ {
			seen := make(map[int32]bool, batch)
			k := 0
			for k < batch {
				x := int32(r.Intn(features))
				if seen[x] {
					continue
				}
				seen[x] = true
				feats[k] = x
				k++
			}
			tbl.Read(w, feats, dst, ReadOptions{Staleness: 2, InterCheck: true})
			for i := 0; i < batch*tbl.Dim(); i++ {
				grads.Data[i] = 2*r.Float32() - 1
			}
			tbl.Update(w, feats, grads, 3)
			// PS-style direct pushes, including duplicate features.
			for j := 0; j < 8; j++ {
				x := feats[j%4]
				tbl.QueuePrimary(w, x, grads.Row(j))
			}
		}
		tbl.Commit()
	}
	tbl.FlushAll()
}

type commitSnapshot struct {
	primary []float32
	clocks  []int64
	normSq  float64
}

func snapshotCommit(tbl *Table) commitSnapshot {
	s := commitSnapshot{
		primary: tbl.primaryValues(),
		clocks:  append([]int64(nil), tbl.primaryClock...),
		normSq:  tbl.TakeStepNormSq(),
	}
	return s
}

// TestCommitParallelBitIdentical pins the commit contract: the
// owner-sharded parallel drain produces bit-identical primaries, clocks,
// and tracked step norms to the serial drain at GOMAXPROCS 1, at
// GOMAXPROCS 3 (a goroutine count that does not divide the owner count),
// 4 and 8.
func TestCommitParallelBitIdentical(t *testing.T) {
	run := func(procs int) commitSnapshot {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		tbl := commitFixture(t, optim.NewSGD(0.05))
		tbl.TrackStepNorms(true)
		driveCommitWorkload(tbl, 4)
		return tbl.snapshotForTest()
	}
	ref := run(1)
	for _, procs := range []int{3, 4, 8} {
		got := run(procs)
		if len(got.primary) != len(ref.primary) {
			t.Fatalf("GOMAXPROCS=%d: primary size mismatch", procs)
		}
		for i := range ref.primary {
			if got.primary[i] != ref.primary[i] {
				t.Fatalf("GOMAXPROCS=%d: primary[%d] = %v, serial %v",
					procs, i, got.primary[i], ref.primary[i])
			}
		}
		for x := range ref.clocks {
			if got.clocks[x] != ref.clocks[x] {
				t.Fatalf("GOMAXPROCS=%d: clock[%d] = %d, serial %d",
					procs, x, got.clocks[x], ref.clocks[x])
			}
		}
		if got.normSq != ref.normSq {
			t.Fatalf("GOMAXPROCS=%d: stepNormSq = %v, serial %v",
				procs, got.normSq, ref.normSq)
		}
	}
}

// snapshotForTest captures the commit-visible state compared by the
// equivalence tests.
func (t *Table) snapshotForTest() commitSnapshot {
	return snapshotCommit(t)
}

// TestQueueCommitAllocationFree pins the arena claim: after a warmup
// window grows the arena and queues to steady-state capacity, the
// queue→commit path runs without heap allocation.
func TestQueueCommitAllocationFree(t *testing.T) {
	const updates = 100
	grad := make([]float32, 8)
	for i := range grad {
		grad[i] = 0.01
	}
	run := func(tbl *Table) float64 {
		// Warmup grows the arena and per-owner queue capacity.
		for j := 0; j < updates; j++ {
			tbl.QueuePrimary(j%tbl.Workers(), int32(j%tbl.cfg.NumFeatures), grad)
		}
		tbl.Commit()
		return testing.AllocsPerRun(10, func() {
			for j := 0; j < updates; j++ {
				tbl.QueuePrimary(j%tbl.Workers(), int32(j%tbl.cfg.NumFeatures), grad)
			}
			tbl.Commit()
		})
	}
	// GOMAXPROCS 1 keeps the drain on the calling goroutine so the number
	// below is the per-update path itself, not goroutine-spawn overhead.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if allocs := run(commitFixture(t, optim.NewSGD(0.05))); allocs > 0 {
		t.Fatalf("arena path: %v allocs per %d-update window, want 0", allocs, updates)
	}
}

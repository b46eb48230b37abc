package embed

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"hetgmp/internal/optim"
	"hetgmp/internal/partition"
)

// tierFixture is commitFixture's tiered twin: same 8 workers × 512 features
// shape, with a hot budget of 64 rows (12.5% of the table — within the
// acceptance bar's ≤25%) and the top half of the id space spilled cold
// across several small shards.
func tierFixture(t *testing.T, tiers TierConfig) *Table {
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
		Optimizer: optim.NewSGD(0.05), LocalLR: 0.1, Seed: 21,
		Tiers: tiers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

func testTiers() TierConfig {
	return TierConfig{HotRows: 64, ColdRows: 256, ColdShardRows: 100}
}

// TestTieredBitIdenticalToFlat is the storage-level oracle: the same
// workload through the tiered store and the flat store must leave
// bit-identical primary values, clocks, and checkpoint bytes — at
// GOMAXPROCS 1, 4 and 8 — while the tiered run actually exercises all
// three tiers with a hot budget several times smaller than the table.
func TestTieredBitIdenticalToFlat(t *testing.T) {
	flat := tierFixture(t, TierConfig{})
	driveCommitWorkload(flat, 4)
	want := snapshotCommit(flat)
	var wantCkpt bytes.Buffer
	if _, err := flat.WriteTo(&wantCkpt); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		tiered := tierFixture(t, testTiers())
		driveCommitWorkload(tiered, 4)
		runtime.GOMAXPROCS(old)

		got := snapshotCommit(tiered)
		for i := range want.primary {
			if got.primary[i] != want.primary[i] {
				t.Fatalf("GOMAXPROCS=%d: primary[%d] = %v, flat %v", procs, i, got.primary[i], want.primary[i])
			}
		}
		for x := range want.clocks {
			if got.clocks[x] != want.clocks[x] {
				t.Fatalf("GOMAXPROCS=%d: clock[%d] = %d, flat %d", procs, x, got.clocks[x], want.clocks[x])
			}
		}
		var ckpt bytes.Buffer
		if _, err := tiered.WriteTo(&ckpt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckpt.Bytes(), wantCkpt.Bytes()) {
			t.Fatalf("GOMAXPROCS=%d: tiered checkpoint differs from flat", procs)
		}

		ts := tiered.TierStats()
		if ts == nil {
			t.Fatal("tiered table reports no tier stats")
		}
		if ts.ReadHot == 0 || ts.ReadWarm == 0 || ts.ReadCold == 0 {
			t.Fatalf("workload did not exercise every tier on reads: %+v", ts)
		}
		if ts.CommitHot+ts.CommitWarm+ts.CommitCold == 0 {
			t.Fatalf("no commit-path accesses recorded: %+v", ts)
		}
		if ts.Promotions == 0 {
			t.Fatalf("no promotions: %+v", ts)
		}
		// The acceptance shape: total value footprint ≥ 4× the hot budget.
		if total := ts.HotBytes + ts.WarmBytes + ts.ColdBytes; total < 4*ts.HotBytes {
			t.Fatalf("footprint %d not ≥ 4× hot budget %d", total, ts.HotBytes)
		}
	}
}

// TestTieredEvictionDeterministic pins the eviction decisions themselves:
// the cache's full internal state (slot assignment, reference counters,
// clock hand, promotion/demotion totals) must be identical at any
// GOMAXPROCS.
func TestTieredEvictionDeterministic(t *testing.T) {
	type cacheState struct {
		slotOf  []int32
		hotFeat []int32
		hotRef  []uint8
		hand    int
		stats   TierStats
	}
	capture := func(procs int) cacheState {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		tbl := tierFixture(t, testTiers())
		driveCommitWorkload(tbl, 3)
		s := tbl.store.(*tieredStore)
		return cacheState{
			slotOf:  append([]int32(nil), s.slotOf...),
			hotFeat: append([]int32(nil), s.hotFeat...),
			hotRef:  append([]uint8(nil), s.hotRef...),
			hand:    s.hand,
			stats:   *tbl.TierStats(),
		}
	}
	ref := capture(1)
	if ref.stats.Promotions == 0 || ref.stats.Demotions == 0 {
		t.Fatalf("workload too tame to test eviction: %+v", ref.stats)
	}
	for _, procs := range []int{1, 4, 8} {
		got := capture(procs)
		if got.hand != ref.hand {
			t.Fatalf("GOMAXPROCS=%d: clock hand %d, reference %d", procs, got.hand, ref.hand)
		}
		if got.stats != ref.stats {
			t.Fatalf("GOMAXPROCS=%d: tier stats %+v, reference %+v", procs, got.stats, ref.stats)
		}
		for i := range ref.slotOf {
			if got.slotOf[i] != ref.slotOf[i] {
				t.Fatalf("GOMAXPROCS=%d: slotOf[%d] = %d, reference %d", procs, i, got.slotOf[i], ref.slotOf[i])
			}
		}
		for i := range ref.hotFeat {
			if got.hotFeat[i] != ref.hotFeat[i] || got.hotRef[i] != ref.hotRef[i] {
				t.Fatalf("GOMAXPROCS=%d: slot %d (%d,%d), reference (%d,%d)",
					procs, i, got.hotFeat[i], got.hotRef[i], ref.hotFeat[i], ref.hotRef[i])
			}
		}
	}
}

// TestTieredPromotionDemotionUnderCommit drives tier movement through the
// commit path alone: a one-slot cache must promote each committed feature
// in turn, demoting the previous occupant with its updated value written
// back intact.
func TestTieredPromotionDemotionUnderCommit(t *testing.T) {
	const features = 8
	a := partition.NewAssignment(1, 1, features)
	a.SampleOf[0] = 0
	for x := 0; x < features; x++ {
		a.PrimaryOf[x] = 0
	}
	tbl, err := NewTable(Config{
		NumFeatures: features, Dim: 4, Assign: a,
		Optimizer: optim.NewSGD(1.0), Seed: 7,
		Tiers: TierConfig{HotRows: 1, ColdRows: 4, ColdShardRows: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()

	flat, err := NewTable(Config{
		NumFeatures: features, Dim: 4, Assign: a,
		Optimizer: optim.NewSGD(1.0), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	grad := []float32{1, 2, 3, 4}
	for x := int32(0); x < features; x++ {
		tbl.QueuePrimary(0, x, grad)
		flat.QueuePrimary(0, x, grad)
		tbl.Commit()
		flat.Commit()
		s := tbl.store.(*tieredStore)
		if s.hotFeat[0] != x {
			t.Fatalf("after committing %d, hot slot holds %d", x, s.hotFeat[0])
		}
	}
	ts := tbl.TierStats()
	if ts.Promotions != features {
		t.Fatalf("promotions = %d, want %d", ts.Promotions, features)
	}
	if ts.Demotions != features-1 {
		t.Fatalf("demotions = %d, want %d", ts.Demotions, features-1)
	}
	wantVals := flat.primaryValues()
	gotVals := tbl.primaryValues()
	for i := range wantVals {
		if gotVals[i] != wantVals[i] {
			t.Fatalf("primary[%d] = %v after demotion round-trips, flat %v", i, gotVals[i], wantVals[i])
		}
	}
}

// TestTieredCheckpointInterchange proves checkpoints cross the tier
// boundary: a tiered table's bytes restore into a flat table and vice
// versa, landing on identical state.
func TestTieredCheckpointInterchange(t *testing.T) {
	tiered := tierFixture(t, testTiers())
	driveCommitWorkload(tiered, 2)
	var ckpt bytes.Buffer
	if _, err := tiered.WriteTo(&ckpt); err != nil {
		t.Fatal(err)
	}

	flat := tierFixture(t, TierConfig{})
	if _, err := flat.ReadFrom(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	fv, tv := flat.primaryValues(), tiered.primaryValues()
	for i := range fv {
		if fv[i] != tv[i] {
			t.Fatalf("flat restore diverges at %d: %v vs %v", i, fv[i], tv[i])
		}
	}

	restored := tierFixture(t, testTiers())
	if _, err := restored.ReadFrom(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	rv := restored.primaryValues()
	for i := range rv {
		if rv[i] != tv[i] {
			t.Fatalf("tiered restore diverges at %d: %v vs %v", i, rv[i], tv[i])
		}
	}
}

// TestTieredCloseRemovesSpill pins the spill lifecycle: a table that
// created its own temp directory removes it on Close, and Close is
// idempotent.
func TestTieredCloseRemovesSpill(t *testing.T) {
	tbl := tierFixture(t, testTiers())
	s := tbl.store.(*tieredStore)
	dir := s.cold.dir
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("spill dir missing before close: %v", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir still present after close (err=%v)", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestTieredColdDirKept pins the opposite arm: a caller-supplied spill
// directory survives Close (the caller owns it).
func TestTieredColdDirKept(t *testing.T) {
	dir := t.TempDir()
	tiers := testTiers()
	tiers.ColdDir = dir
	tbl := tierFixture(t, tiers)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("caller-owned spill dir removed: %v", err)
	}
}

func TestRecommendHotRows(t *testing.T) {
	curve := []CoverageSample{
		{K: 1, Coverage: 0.20},
		{K: 4, Coverage: 0.45},
		{K: 16, Coverage: 0.80},
		{K: 64, Coverage: 0.95},
	}
	cases := []struct {
		target float64
		want   int
	}{
		{0.5, 16},
		{0.8, 16},
		{0.9, 64},
		{0.99, 64}, // unreachable: the curve's best
		{0.1, 1},
		{0, 0},
	}
	for _, c := range cases {
		if got := RecommendHotRows(curve, c.target); got != c.want {
			t.Errorf("RecommendHotRows(target=%g) = %d, want %d", c.target, got, c.want)
		}
	}
	if got := RecommendHotRows(nil, 0.5); got != 0 {
		t.Errorf("empty curve returned %d", got)
	}
}

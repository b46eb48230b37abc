package partition

import (
	"runtime"
	"testing"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/dataset"
)

// assignmentsEqual reports whether two hybrid results assign every sample,
// primary and replica set identically.
func assignmentsEqual(t *testing.T, label string, a, b *Assignment) {
	t.Helper()
	for i := range a.SampleOf {
		if a.SampleOf[i] != b.SampleOf[i] {
			t.Fatalf("%s: sample %d assigned %d vs %d", label, i, a.SampleOf[i], b.SampleOf[i])
		}
	}
	for x := range a.PrimaryOf {
		if a.PrimaryOf[x] != b.PrimaryOf[x] {
			t.Fatalf("%s: primary %d assigned %d vs %d", label, x, a.PrimaryOf[x], b.PrimaryOf[x])
		}
		if a.replicas[x] != b.replicas[x] {
			t.Fatalf("%s: replica set of %d differs", label, x)
		}
	}
}

// TestHybridParallelDeterminism is the core guarantee of the chunked-delta
// design: the assignment is a pure function of the graph and the seed, never
// of how many goroutines scored it or how the visit order was blocked.
func TestHybridParallelDeterminism(t *testing.T) {
	g := testDataset(t, dataset.Avazu, 2e-4)
	base := func() HybridConfig {
		cfg := DefaultHybridConfig(8)
		cfg.Rounds = 3
		return cfg
	}
	ref, err := Hybrid(g, base())
	if err != nil {
		t.Fatal(err)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := Hybrid(g, base())
		if err != nil {
			t.Fatal(err)
		}
		assignmentsEqual(t, "GOMAXPROCS", ref.Assignment, got.Assignment)
	}
	runtime.GOMAXPROCS(prev)

	for _, workers := range []int{1, 4, 8} {
		cfg := base()
		cfg.Parallelism = workers
		got, err := Hybrid(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assignmentsEqual(t, "Parallelism", ref.Assignment, got.Assignment)
	}

	for _, block := range []int{64, 1000, 1 << 20} {
		cfg := base()
		cfg.DeltaBlock = block
		got, err := Hybrid(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assignmentsEqual(t, "DeltaBlock", ref.Assignment, got.Assignment)
	}
}

// TestHybridChunkedMatchesReferenceQuality holds the parallel implementation
// to the sequential greedy's partition quality: remote accesses after a full
// 5-round run must stay within 2%, on both uniform and weighted costs.
func TestHybridChunkedMatchesReferenceQuality(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Avazu, 2e-4)
	weighted := make([][]float64, 8)
	for i := range weighted {
		weighted[i] = make([]float64, 8)
		for j := range weighted[i] {
			if i != j {
				weighted[i][j] = 1
				if i/4 != j/4 {
					weighted[i][j] = 20 // cross-socket
				}
			}
		}
	}
	for _, tc := range []struct {
		name    string
		weights [][]float64
	}{
		{"uniform", nil},
		{"weighted", weighted},
	} {
		cfg := DefaultHybridConfig(8)
		cfg.Weights = tc.weights
		ref, err := hybridReference(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Hybrid(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refRemote := ref.Rounds[len(ref.Rounds)-1].RemoteAccesses
		parRemote := par.Rounds[len(par.Rounds)-1].RemoteAccesses
		if float64(parRemote) > 1.02*float64(refRemote) {
			t.Errorf("%s: chunked remote %d exceeds reference %d by more than 2%%",
				tc.name, parRemote, refRemote)
		}
	}
}

// BenchmarkHybridReference benchmarks the sequential baseline for comparison
// with BenchmarkHybridPartition (the parallel implementation).
func BenchmarkHybridReference(b *testing.B) {
	ds, err := dataset.New(dataset.Avazu, 2e-4, 31)
	if err != nil {
		b.Fatal(err)
	}
	g := bigraph.FromDataset(ds)
	cfg := DefaultHybridConfig(8)
	cfg.Rounds = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybridReference(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package engine

import (
	"testing"
	"time"

	"hetgmp/internal/consistency"
	"hetgmp/internal/embed"
	"hetgmp/internal/obs"
	"hetgmp/internal/obs/analyze"
)

// reportConfig attaches the full observability stack plus the analyzer to a
// protocol run.
func reportConfig(t *testing.T, f *fixture, p consistency.Protocol, s int64) (Config, *obs.Tracer) {
	t.Helper()
	assign := hybridAssign(t, f, f.topo.NumWorkers())
	cfg := protocolConfig(t, f, assign, p, s, 1)
	tracer := obs.NewTracer()
	cfg.Metrics = obs.NewRegistry(f.topo.NumWorkers())
	cfg.Tracer = tracer
	cfg.Report = true
	cfg.Overlap = 0.6
	return cfg, tracer
}

// TestReportMetamorphicAcrossProtocols pins the analyzer's metamorphic
// relations under every consistency protocol:
//
//   - every (worker, epoch, iteration) span group's phase durations sum to
//     its simulated extent (the spans partition the timeline),
//   - phase shares sum to 1,
//   - overlap efficiency lies in [0, 1],
//   - wait attribution follows the protocol: only a finite nonzero bound
//     may produce staleness-wait; BSP and ASP report it as barrier-wait.
func TestReportMetamorphicAcrossProtocols(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	for _, p := range consistency.Protocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg, tracer := reportConfig(t, f, p, 40)
			res := run(t, cfg)
			if res.Report == nil {
				t.Fatal("Report=true produced no report")
			}
			if err := analyze.VerifySpanAccounting(tracer.Spans(), 1e-6); err != nil {
				t.Errorf("span accounting: %v", err)
			}
			var shareSum float64
			for _, ps := range res.Report.Phases {
				shareSum += ps.Share
			}
			if shareSum < 0.999999 || shareSum > 1.000001 {
				t.Errorf("phase shares sum to %g, want 1", shareSum)
			}
			eff := res.Report.Overlap.Efficiency
			if eff < 0 || eff > 1 {
				t.Errorf("overlap efficiency %g outside [0,1]", eff)
			}
			staleWait := res.Report.Phases[obs.PhaseWait.String()].Seconds
			switch p {
			case consistency.BSP, consistency.ASP:
				if staleWait != 0 {
					t.Errorf("%s reports %g s staleness-wait, want 0 (barrier-wait only)", p, staleWait)
				}
			default:
				if barrier := res.Report.Phases[obs.PhaseBarrier.String()].Seconds; barrier != 0 {
					t.Errorf("%s (s=40) reports %g s barrier-wait, want staleness-wait only", p, barrier)
				}
			}
		})
	}
}

// TestReportPSBranch runs the parameter-server branch with the analyzer and
// checks the same invariants hold for its span layout, plus that the report
// labels the branch correctly.
func TestReportPSBranch(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	cfg, tracer := reportConfig(t, f, consistency.BSP, 0)
	cfg.PS = &PSConfig{Hosts: f.topo.Nodes, HybridDense: true}
	res := run(t, cfg)
	if res.Report == nil {
		t.Fatal("no report")
	}
	if res.Report.Overlap.Branch != "ps" {
		t.Errorf("branch = %q, want ps", res.Report.Overlap.Branch)
	}
	if err := analyze.VerifySpanAccounting(tracer.Spans(), 1e-6); err != nil {
		t.Errorf("span accounting (PS branch): %v", err)
	}
}

// TestReportCarriesRunFacts checks the report agrees with the engine's own
// result scalars rather than re-deriving them approximately.
func TestReportCarriesRunFacts(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	cfg, _ := reportConfig(t, f, consistency.GraphBounded, 40)
	res := run(t, cfg)
	if res.Report.TotalSimSeconds != res.TotalSimTime {
		t.Errorf("report sim time %g, engine %g", res.Report.TotalSimSeconds, res.TotalSimTime)
	}
	if res.Report.Iterations != res.Iterations {
		t.Errorf("report iterations %d, engine %d", res.Report.Iterations, res.Iterations)
	}
	if res.Report.Traffic.TotalBytes == 0 {
		t.Error("report carries no traffic")
	}
	if res.Report.Meta.ConfigHash == "" {
		t.Error("report is unstamped")
	}
	if len(res.Report.Workers) != f.topo.NumWorkers() {
		t.Errorf("report has %d workers, want %d", len(res.Report.Workers), f.topo.NumWorkers())
	}
}

// TestReportNoObserverEffect pins the zero-cost-observability contract one
// level up: attaching the full obs stack and the analyzer must not change
// what the simulation computes — history, AUC, simulated time and traffic
// must be bit-identical to a bare run.
func TestReportNoObserverEffect(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	assign := hybridAssign(t, f, f.topo.NumWorkers())

	bare := run(t, protocolConfig(t, f, assign, consistency.GraphBounded, 40, 1))

	obsCfg := protocolConfig(t, f, assign, consistency.GraphBounded, 40, 1)
	obsCfg.Metrics = obs.NewRegistry(f.topo.NumWorkers())
	obsCfg.Tracer = obs.NewTracer()
	obsCfg.Report = true
	observed := run(t, obsCfg)

	if observed.Report == nil {
		t.Fatal("no report")
	}
	if bare.FinalAUC != observed.FinalAUC || bare.BestAUC != observed.BestAUC {
		t.Errorf("AUC changed under observation: %v/%v vs %v/%v",
			bare.FinalAUC, bare.BestAUC, observed.FinalAUC, observed.BestAUC)
	}
	if bare.TotalSimTime != observed.TotalSimTime {
		t.Errorf("sim time changed under observation: %v vs %v", bare.TotalSimTime, observed.TotalSimTime)
	}
	if bare.SamplesProcessed != observed.SamplesProcessed {
		t.Errorf("samples changed under observation: %d vs %d", bare.SamplesProcessed, observed.SamplesProcessed)
	}
	if bare.Breakdown != observed.Breakdown {
		t.Errorf("traffic changed under observation: %+v vs %+v", bare.Breakdown, observed.Breakdown)
	}
	if len(bare.History) != len(observed.History) {
		t.Fatalf("history length changed: %d vs %d", len(bare.History), len(observed.History))
	}
	for i := range bare.History {
		if bare.History[i] != observed.History[i] {
			t.Errorf("history diverges at %d: %+v vs %+v", i, bare.History[i], observed.History[i])
		}
	}
}

// TestReportRequiresSinks pins Config validation: Report without the sinks
// it consumes is a configuration error, not a silent no-op.
func TestReportRequiresSinks(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	cfg := f.config(t, func(c *Config) { c.Report = true })
	if _, err := NewTrainer(cfg); err == nil {
		t.Fatal("Report without Metrics+Tracer must be rejected")
	}
}

// TestConfigHashStable pins that the run-identity hash covers the protocol
// and nothing else: two configs differing only in staleness must hash
// differently, identical configs identically, and the storage layout and
// the transport mesh — which never change the simulated result — must not
// move the hash.
func TestConfigHashStable(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	a := f.config(t, nil)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		same   bool
	}{
		{"identical", nil, true},
		{"staleness changed", func(c *Config) { c.Staleness = 7 }, false},
		{"Tiers set", func(c *Config) {
			c.Tiers = embed.TierConfig{HotRows: 16, ColdRows: 32, ColdDir: t.TempDir()}
		}, true},
		{"Dist set", func(c *Config) { c.Dist = &DistConfig{RecvTimeout: time.Second} }, true},
	} {
		b := f.config(t, tc.mutate)
		if got := b.Hash() == a.Hash(); got != tc.same {
			t.Errorf("%s: hash equal = %v, want %v", tc.name, got, tc.same)
		}
	}
}

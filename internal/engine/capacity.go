package engine

import (
	"hetgmp/internal/nn"
	"hetgmp/internal/obs"
	"hetgmp/internal/obs/analyze"
	"hetgmp/internal/obs/memacct"
	"hetgmp/internal/tensor"
)

func bufBytes(m *tensor.Matrix) int64 {
	if m == nil {
		return 0
	}
	return int64(len(m.Data)) * 4
}

// Footprint reports the run's measured memory layout as a component→bytes
// tree (internal/obs/memacct): the embedding table, the dense model
// (weights + batch-parallel activation shards), the partition assignment,
// the bigraph (when the caller threaded it through Config.Graph), and the
// engine's own per-worker buffers. Walks append-grown table buffers, so
// call only from single-threaded sections (between iterations or
// post-run).
func (t *Trainer) Footprint() obs.Footprint {
	var dedup, prep, gather int64
	states := make([]nn.State, 0, len(t.workers))
	for _, w := range t.workers {
		states = append(states, w.state)
		dedup += int64(len(w.uniqGen))*4 + int64(len(w.uniqSlot))*4
		prep += int64(cap(w.uniq))*4 + int64(cap(w.batchIdx))*4 + int64(cap(w.labels))*4
		gather += bufBytes(w.embBuf) + bufBytes(w.gradBuf) + bufBytes(w.input) +
			int64(len(w.dLogit))*4 + int64(len(w.iterHostBytes))*8
	}
	var dense int64
	for _, g := range t.denseGrad {
		dense += int64(len(g)) * 4
	}
	dense += int64(len(t.denseAvg)) * 4
	eval := bufBytes(t.evalInput) + int64(len(t.evalScores))*4 + int64(len(t.evalLabels))*4 +
		nn.StateBytes(t.evalState)

	children := []memacct.Footprint{
		t.table.Footprint(),
		t.model.Footprint(states),
		t.cfg.Assign.Footprint(),
		memacct.Node("engine",
			memacct.Leaf("dedup_index", dedup),
			memacct.Leaf("batch_prep", prep),
			memacct.Leaf("gather_buffers", gather),
			memacct.Leaf("dense_sync", dense),
			memacct.Leaf("eval", eval),
			memacct.Leaf("ps_index", int64(len(t.psHome))),
		),
	}
	if t.cfg.Graph != nil {
		children = append(children, t.cfg.Graph.Footprint())
	}
	return memacct.Node("run", children...)
}

// capacityStat assembles the RunReport's capacity block, nil when the run
// gathered no hot-set telemetry (no registry).
func (t *Trainer) capacityStat() *analyze.CapacityStat {
	reads := t.table.ReadSketch()
	if reads == nil {
		return nil
	}
	c := analyze.BuildCapacity(
		t.Footprint(),
		int64(t.cfg.Dim)*4,
		reads,
		t.table.UpdateSketch(),
		t.cfg.Assign.ReplicatedFeatures(),
	)
	if ts := t.table.TierStats(); ts != nil {
		// Convert the live ledger into the report's own type (analyze does
		// not import embed); VerifyCapacity cross-checks these bytes against
		// the footprint's table.primary.{hot,warm,cold} nodes.
		c.Tiers = &analyze.TierStat{
			HotRows: ts.HotRows, WarmRows: ts.WarmRows, ColdRows: ts.ColdRows,
			HotBytes: ts.HotBytes, WarmBytes: ts.WarmBytes, ColdBytes: ts.ColdBytes,
			ReadHot: ts.ReadHot, ReadWarm: ts.ReadWarm, ReadCold: ts.ReadCold,
			CommitHot: ts.CommitHot, CommitWarm: ts.CommitWarm, CommitCold: ts.CommitCold,
			Promotions: ts.Promotions, Demotions: ts.Demotions,
		}
	}
	return c
}

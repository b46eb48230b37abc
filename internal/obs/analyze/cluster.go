// Cluster merge: fold N per-rank RunReports from one distributed run into
// a single ClusterReport. The deterministic state-replication design
// (DESIGN.md §13) makes every *simulated* quantity — phase decomposition,
// fabric traffic, overlap, stragglers, sim-time quantiles — bit-identical
// on every rank, so the merge is first and foremost a verifier: it refuses
// report sets whose simulated telemetry disagrees (a replication bug the
// checkpoint oracle would also catch, surfaced here at the telemetry
// layer), and cross-checks the *real* wire ledgers for reciprocity — rank
// a's sent-to-b counters must equal rank b's received-from-a counters,
// frame for frame and byte for byte. What legitimately differs per rank
// (wire traffic volume, wall-clock transport latency, wait attribution) is
// laid out side by side.
package analyze

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"hetgmp/internal/obs"
	"hetgmp/internal/report"
)

// ClusterSchema is the ClusterReport schema version; DiffCluster refuses
// to compare cluster reports with different schemas.
const ClusterSchema = 1

// RankSummary is one rank's row of the cluster view: its share of the
// real wire traffic and its wait attribution.
type RankSummary struct {
	Rank      int   `json:"rank"`
	SentMsgs  int64 `json:"sent_msgs"`
	SentBytes int64 `json:"sent_bytes"`
	RecvMsgs  int64 `json:"recv_msgs"`
	RecvBytes int64 `json:"recv_bytes"`
	// Wait attribution for the worker this rank computes (simulated time;
	// identical on every rank by replication, attributed here to the rank
	// that owns the worker).
	BusySeconds          float64 `json:"busy_seconds"`
	WaitSeconds          float64 `json:"wait_seconds"`
	StalenessWaitSeconds float64 `json:"staleness_wait_seconds"`
	BarrierWaitSeconds   float64 `json:"barrier_wait_seconds"`
	Bound                string  `json:"bound"`
}

// WireStat aggregates the cluster's real wire traffic from the per-rank
// sender ledgers (receiver ledgers are verified identical by the merge).
type WireStat struct {
	TotalMsgs  int64            `json:"total_msgs"`
	TotalBytes int64            `json:"total_bytes"`
	ByType     map[string]int64 `json:"by_type,omitempty"`
	// Matrix[src][dst] is the wire bytes rank src sent to rank dst.
	Matrix [][]int64 `json:"matrix"`
}

// ClusterReport is the merged, cross-verified view of one distributed run.
type ClusterReport struct {
	ClusterSchema int  `json:"cluster_schema"`
	Meta          Meta `json:"meta"` // rank 0's stamp with Rank cleared
	World         int  `json:"world_size"`

	// Simulated quantities, verified bit-identical across ranks.
	TotalSimSeconds float64              `json:"total_sim_seconds"`
	Iterations      int                  `json:"iterations"`
	Phases          map[string]PhaseStat `json:"phases"`
	Overlap         OverlapStat          `json:"overlap"`
	Traffic         TrafficStat          `json:"traffic"`
	Stragglers      StragglerStat        `json:"stragglers"`

	// Real per-rank quantities.
	Wire  WireStat      `json:"wire"`
	Ranks []RankSummary `json:"ranks"`
	// WireSkew is max/mean of per-rank total sent wire bytes — the
	// cross-rank communication balance (1 = perfectly balanced).
	WireSkew float64 `json:"wire_skew_max_over_mean"`

	// Quantiles carries the cluster-wide sim-time quantiles (identical on
	// every rank); per-rank wall-clock transport quantiles are excluded.
	Quantiles map[string]obs.QuantileSet `json:"quantiles,omitempty"`

	// Capacity[i] is rank i's measured footprint + hot-set block, index-
	// aligned with Ranks. Memory layout and sketch contents are real
	// per-rank quantities (each rank only reads for its own worker), so
	// they sit outside the bit-identical simulated surface and are merged
	// side-by-side rather than verified equal.
	Capacity []*CapacityStat `json:"capacity,omitempty"`
}

// simQuantile reports whether a quantile key is a replicated simulated
// histogram — one every rank derives from the global schedule and must
// therefore agree on bit-for-bit. That is the engine.* and fabric.*
// families, minus anything wall-clock: transport.* histograms measure real
// time on one rank's sockets, *_wall_nanos metrics measure one rank's
// host, and table.* histograms instrument only the reads the rank
// executed for its own worker shard — all legitimately differ across ranks.
func simQuantile(name string) bool {
	if strings.Contains(name, "wall_nanos") {
		return false
	}
	return strings.HasPrefix(name, "engine.") || strings.HasPrefix(name, "fabric.")
}

// MergeCluster folds one RunReport per rank into a ClusterReport,
// verifying along the way:
//
//   - the set holds exactly ranks 0..n-1 of one world of size n,
//   - all reports are Comparable (same schema + config hash),
//   - every simulated quantity is bit-identical across ranks (replication
//     extended to telemetry — the bit-identity oracle for metrics),
//   - the wire matrix is reciprocal: rank a's sent-to-b ledger equals
//     rank b's received-from-a ledger exactly.
//
// Any violation is an error naming the first offending rank or link.
func MergeCluster(reports []*RunReport) (*ClusterReport, error) {
	n := len(reports)
	if n < 2 {
		return nil, fmt.Errorf("analyze: cluster merge needs at least 2 reports, got %d", n)
	}
	for _, r := range reports {
		if r == nil {
			return nil, fmt.Errorf("analyze: nil report in cluster merge")
		}
		if r.Transport == nil {
			return nil, fmt.Errorf("analyze: report (rank %d) has no transport block — not a distributed run's report", r.Meta.Rank)
		}
		if r.Transport.World != n {
			return nil, fmt.Errorf("analyze: rank %d reports world size %d but %d reports were given",
				r.Transport.Rank, r.Transport.World, n)
		}
	}
	sorted := append([]*RunReport(nil), reports...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Transport.Rank < sorted[j].Transport.Rank })
	for i, r := range sorted {
		if r.Transport.Rank != i {
			return nil, fmt.Errorf("analyze: cluster merge wants ranks 0..%d exactly, got duplicate or missing rank (saw %d at position %d)",
				n-1, r.Transport.Rank, i)
		}
		if r.Meta.WorldSize != 0 && r.Meta.WorldSize != n {
			return nil, fmt.Errorf("analyze: rank %d meta stamps world size %d, transport says %d",
				i, r.Meta.WorldSize, n)
		}
	}
	ref := sorted[0]
	for _, r := range sorted[1:] {
		if err := Comparable(ref.Meta, r.Meta, false); err != nil {
			return nil, fmt.Errorf("analyze: rank %d vs rank 0: %w", r.Transport.Rank, err)
		}
		if err := sameSimulated(ref, r); err != nil {
			return nil, fmt.Errorf("analyze: rank %d's simulated telemetry diverges from rank 0's (replication broken): %w",
				r.Transport.Rank, err)
		}
	}
	if err := verifyWireReciprocity(sorted); err != nil {
		return nil, err
	}

	cr := &ClusterReport{
		ClusterSchema:   ClusterSchema,
		Meta:            ref.Meta,
		World:           n,
		TotalSimSeconds: ref.TotalSimSeconds,
		Iterations:      ref.Iterations,
		Phases:          ref.Phases,
		Overlap:         ref.Overlap,
		Traffic:         ref.Traffic,
		Stragglers:      ref.Stragglers,
		Quantiles:       make(map[string]obs.QuantileSet),
	}
	cr.Meta.Rank = 0
	cr.Meta.WorldSize = n
	for name, q := range ref.Quantiles {
		if simQuantile(name) {
			cr.Quantiles[name] = q
		}
	}

	// Wire aggregation from the sender ledgers.
	cr.Wire = WireStat{ByType: make(map[string]int64), Matrix: make([][]int64, n)}
	for src := range cr.Wire.Matrix {
		cr.Wire.Matrix[src] = make([]int64, n)
		t := sorted[src].Transport
		for _, l := range t.Links {
			cr.Wire.Matrix[src][l.Peer] = l.SentBytes
		}
		for typ, b := range t.SentBytes {
			cr.Wire.ByType[typ] += b
		}
		m, b := t.TotalSent()
		cr.Wire.TotalMsgs += m
		cr.Wire.TotalBytes += b
	}

	// Per-rank rows: wire share + the owned worker's wait attribution.
	var sentSum, sentMax float64
	for rank, r := range sorted {
		sm, sb := r.Transport.TotalSent()
		rm, rb := r.Transport.TotalRecv()
		row := RankSummary{
			Rank: rank, SentMsgs: sm, SentBytes: sb, RecvMsgs: rm, RecvBytes: rb,
		}
		for _, w := range r.Workers {
			if w.Worker != rank {
				continue
			}
			row.BusySeconds = w.BusySeconds
			row.WaitSeconds = w.WaitSeconds
			row.StalenessWaitSeconds = w.Phases[obs.PhaseWait.String()]
			row.BarrierWaitSeconds = w.Phases[obs.PhaseBarrier.String()]
			row.Bound = w.Bound
		}
		cr.Ranks = append(cr.Ranks, row)
		sentSum += float64(sb)
		if float64(sb) > sentMax {
			sentMax = float64(sb)
		}
	}
	cr.WireSkew = 1
	if mean := sentSum / float64(n); mean > 0 {
		cr.WireSkew = sentMax / mean
	}
	// Per-rank capacity blocks ride along when present; each must at least
	// be self-consistent (the merge is a verifier for these too).
	anyCap := false
	caps := make([]*CapacityStat, n)
	for rank, r := range sorted {
		if r.Capacity == nil {
			continue
		}
		if err := VerifyCapacity(r.Capacity); err != nil {
			return nil, fmt.Errorf("analyze: rank %d capacity block inconsistent: %v", rank, err)
		}
		caps[rank] = r.Capacity
		anyCap = true
	}
	if anyCap {
		cr.Capacity = caps
	}
	return cr, nil
}

// sameSimulated verifies that every replicated (simulated) block of two
// rank reports is bit-identical.
func sameSimulated(a, b *RunReport) error {
	if a.TotalSimSeconds != b.TotalSimSeconds {
		return fmt.Errorf("total_sim_seconds %v vs %v", a.TotalSimSeconds, b.TotalSimSeconds)
	}
	if a.Iterations != b.Iterations {
		return fmt.Errorf("iterations %d vs %d", a.Iterations, b.Iterations)
	}
	if len(a.Phases) != len(b.Phases) {
		return fmt.Errorf("phase sets differ: %d vs %d phases", len(a.Phases), len(b.Phases))
	}
	for name, pa := range a.Phases {
		pb, ok := b.Phases[name]
		if !ok {
			return fmt.Errorf("phase %q present on one rank only", name)
		}
		if pa != pb {
			return fmt.Errorf("phase %q: %+v vs %+v", name, pa, pb)
		}
	}
	if a.Overlap != b.Overlap {
		return fmt.Errorf("overlap %+v vs %+v", a.Overlap, b.Overlap)
	}
	if a.Traffic.TotalBytes != b.Traffic.TotalBytes {
		return fmt.Errorf("fabric traffic %d vs %d bytes", a.Traffic.TotalBytes, b.Traffic.TotalBytes)
	}
	for cat, va := range a.Traffic.Categories {
		if vb := b.Traffic.Categories[cat]; va != vb {
			return fmt.Errorf("fabric category %q: %d vs %d bytes", cat, va, vb)
		}
	}
	if a.Stragglers.MaxOverMean != b.Stragglers.MaxOverMean || a.Stragglers.Slowest != b.Stragglers.Slowest {
		return fmt.Errorf("stragglers %+v vs %+v", a.Stragglers, b.Stragglers)
	}
	for name, qa := range a.Quantiles {
		if !simQuantile(name) {
			continue
		}
		qb, ok := b.Quantiles[name]
		if !ok {
			return fmt.Errorf("sim-time quantile %q present on one rank only", name)
		}
		if qa != qb {
			return fmt.Errorf("sim-time quantile %q: %+v vs %+v", name, qa, qb)
		}
	}
	return nil
}

// verifyWireReciprocity checks that every directed link's two ledgers
// agree: what a says it sent to b is exactly what b says it accepted from
// a. tcpnet ledgers a frame before delivering it and the protocol consumes
// every frame before the final barrier, so at report time the two ends of
// a healthy link match frame for frame.
func verifyWireReciprocity(sorted []*RunReport) error {
	for a, ra := range sorted {
		for b, rb := range sorted {
			if a == b {
				continue
			}
			sent := ra.Transport.Link(b)
			recv := rb.Transport.Link(a)
			if sent.SentMsgs != recv.RecvMsgs || sent.SentBytes != recv.RecvBytes {
				return fmt.Errorf("analyze: wire link %02d->%02d not reciprocal: rank %d sent %d msgs / %d bytes, rank %d received %d msgs / %d bytes",
					a, b, a, sent.SentMsgs, sent.SentBytes, b, recv.RecvMsgs, recv.RecvBytes)
			}
		}
	}
	return nil
}

// DiffCluster gates a candidate cluster report against a baseline, reusing
// the RunReport tolerances for the shared simulated quantities and adding
// the wire gates: total wire bytes (BytesFrac) and wire skew
// (WireSkewFrac).
func DiffCluster(base, cand *ClusterReport, tol Tolerance, allowMeta bool) (*Verdict, error) {
	if base == nil || cand == nil {
		return nil, fmt.Errorf("analyze: nil cluster report")
	}
	if base.ClusterSchema != cand.ClusterSchema {
		return nil, fmt.Errorf("analyze: cluster schema %d vs %d — regenerate the older report",
			base.ClusterSchema, cand.ClusterSchema)
	}
	if base.World != cand.World {
		return nil, fmt.Errorf("analyze: world size %d vs %d — different cluster shapes are incomparable",
			base.World, cand.World)
	}
	if err := Comparable(base.Meta, cand.Meta, allowMeta); err != nil {
		return nil, err
	}
	v := &Verdict{OK: true, Notes: EnvironmentNotes(base.Meta, cand.Meta)}
	add := func(field string, baseV, candV, delta, tolV float64, regressed bool) {
		v.Findings = append(v.Findings, Finding{
			Field: field, Baseline: baseV, Candidate: candV,
			Delta: delta, Tolerance: tolV, Regression: regressed,
		})
		if regressed {
			v.OK = false
		}
	}

	dOv := cand.Overlap.Efficiency - base.Overlap.Efficiency
	add("overlap.efficiency", base.Overlap.Efficiency, cand.Overlap.Efficiency,
		dOv, tol.Overlap, dOv < -tol.Overlap)

	names := make(map[string]bool)
	for n := range base.Phases {
		names[n] = true
	}
	for n := range cand.Phases {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		b := base.Phases[n].Share
		c := cand.Phases[n].Share
		d := c - b
		add("phase."+n+".share", b, c, d, tol.PhaseShare, math.Abs(d) > tol.PhaseShare)
	}

	dT := fracDelta(base.TotalSimSeconds, cand.TotalSimSeconds)
	add("total_sim_seconds", base.TotalSimSeconds, cand.TotalSimSeconds,
		dT, tol.SimTimeFrac, dT > tol.SimTimeFrac)

	dB := fracDelta(float64(base.Traffic.TotalBytes), float64(cand.Traffic.TotalBytes))
	add("traffic.total_bytes", float64(base.Traffic.TotalBytes), float64(cand.Traffic.TotalBytes),
		dB, tol.BytesFrac, dB > tol.BytesFrac)

	dW := fracDelta(float64(base.Wire.TotalBytes), float64(cand.Wire.TotalBytes))
	add("wire.total_bytes", float64(base.Wire.TotalBytes), float64(cand.Wire.TotalBytes),
		dW, tol.BytesFrac, dW > tol.BytesFrac)

	wireTol := tol.WireSkewFrac
	if wireTol <= 0 {
		wireTol = DefaultTolerance().WireSkewFrac
	}
	dS := fracDelta(base.WireSkew, cand.WireSkew)
	add("wire.skew_max_over_mean", base.WireSkew, cand.WireSkew,
		dS, wireTol, dS > wireTol)

	return v, nil
}

// WriteJSON writes the cluster report, indented, to path.
func (r *ClusterReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadClusterReport loads a ClusterReport from a JSON file.
func ReadClusterReport(path string) (*ClusterReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r ClusterReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("analyze: %s is not a ClusterReport: %w", path, err)
	}
	if r.ClusterSchema == 0 {
		return nil, fmt.Errorf("analyze: %s has no cluster_schema — is it a per-rank RunReport? (merge those first)", path)
	}
	return &r, nil
}

// ReadAnyReport loads either report kind from a JSON file, probing for the
// cluster_schema key: exactly one of the two returns is non-nil on success.
func ReadAnyReport(path string) (*RunReport, *ClusterReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var probe struct {
		ClusterSchema int `json:"cluster_schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, nil, fmt.Errorf("analyze: %s is not a report: %w", path, err)
	}
	if probe.ClusterSchema > 0 {
		var c ClusterReport
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, nil, fmt.Errorf("analyze: %s is not a ClusterReport: %w", path, err)
		}
		return nil, &c, nil
	}
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, nil, fmt.Errorf("analyze: %s is not a RunReport: %w", path, err)
	}
	return &r, nil, nil
}

// String renders the cluster report: the verified simulated summary, the
// wire matrix, and the per-rank table.
func (r *ClusterReport) String() string {
	var b strings.Builder

	st := report.New(fmt.Sprintf("cluster summary (%d ranks, verified bit-identical simulated telemetry)", r.World),
		"quantity", "value")
	st.AddRow("total simulated time", fmt.Sprintf("%.6g s", r.TotalSimSeconds))
	st.AddRow("iterations", r.Iterations)
	st.AddRow("overlap efficiency", report.Percent(r.Overlap.Efficiency))
	st.AddRow("fabric bytes (simulated)", report.FormatBytes(r.Traffic.TotalBytes))
	st.AddRow("wire bytes (real)", report.FormatBytes(r.Wire.TotalBytes))
	st.AddRow("wire messages", r.Wire.TotalMsgs)
	st.AddRow("wire skew (max/mean sent)", fmt.Sprintf("%.3f", r.WireSkew))
	if r.Stragglers.Slowest >= 0 {
		st.AddNote("straggler skew: slowest gpu%02d at %.3f× mean busy time", r.Stragglers.Slowest, r.Stragglers.MaxOverMean)
	}
	types := make([]string, 0, len(r.Wire.ByType))
	for t := range r.Wire.ByType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		st.AddNote("wire %s: %s", t, report.FormatBytes(r.Wire.ByType[t]))
	}
	b.WriteString(st.String())
	b.WriteByte('\n')

	wt := report.New("wire-traffic matrix (sender ledger, verified reciprocal)", "link", "bytes")
	for src := range r.Wire.Matrix {
		for dst, bytes := range r.Wire.Matrix[src] {
			if bytes > 0 {
				wt.AddRow(fmt.Sprintf("%02d->%02d", src, dst), report.FormatBytes(bytes))
			}
		}
	}
	b.WriteString(wt.String())
	b.WriteByte('\n')

	rt := report.New("per-rank attribution", "rank", "sent", "recv", "busy sim s", "wait sim s", "staleness s", "barrier s", "bound")
	for _, rs := range r.Ranks {
		rt.AddRow(fmt.Sprintf("rank%02d", rs.Rank),
			report.FormatBytes(rs.SentBytes), report.FormatBytes(rs.RecvBytes),
			rs.BusySeconds, rs.WaitSeconds, rs.StalenessWaitSeconds, rs.BarrierWaitSeconds, rs.Bound)
	}
	b.WriteString(rt.String())

	if len(r.Capacity) > 0 {
		b.WriteByte('\n')
		ct := report.New("per-rank capacity (measured footprint + hot set)",
			"rank", "footprint", "reads", "updates", "hot-set overlap")
		for rank, c := range r.Capacity {
			if c == nil {
				ct.AddRow(fmt.Sprintf("rank%02d", rank), "-", "-", "-", "-")
				continue
			}
			ct.AddRow(fmt.Sprintf("rank%02d", rank),
				report.FormatBytes(c.MeasuredTotalBytes), c.TotalReads, c.TotalUpdates,
				report.Percent(c.HotSetOverlap))
		}
		b.WriteString(ct.String())
	}
	return b.String()
}

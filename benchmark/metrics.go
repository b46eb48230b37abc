package main

import (
	"fmt"
	"math"
	"sort"
)

// metric names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of hetgmp-train sees, reported by the untraced
// pass. BENCHMARK.json lists the same metrics (bench_test.go checks).
var endToEnd = []metric{
	{"train_samples_per_s", "samples/s", "higher", 0.25},
	{"train_cpu_us_per_sample", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"checkpoint_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.1},
	{"sim_samples_per_s", "samples/s", "higher", 0.1},
	{"emb_bytes_per_sample", "B", "lower", 0.2},
	{"final_auc", "auc", "higher", 0.1},
}

// perLayer is what the traced pass reports, each from calls into one
// layer's public entry points.
var perLayer = []metric{
	{Name: "dataset.generate_s", Unit: "s", Better: "lower"},
	{Name: "bigraph.build_s", Unit: "s", Better: "lower"},
	{Name: "partition.build_s", Unit: "s", Better: "lower"},
	{Name: "partition.remote_share", Unit: "share", Better: "lower"},
	{Name: "nn.fwd_bwd_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "nn.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "embed.read_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "embed.update_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "embed.commit_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "embed.tier_read_hit_rate", Unit: "share", Better: "higher"},
	{Name: "embed.tier_promotions_per_iter", Unit: "count", Better: "lower"},
	{Name: "embed.remote_read_share", Unit: "share", Better: "lower"},
	{Name: "embed.synced_reads_per_iter", Unit: "count", Better: "lower"},
	{Name: "embed.checkpoint_write_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "embed.checkpoint_read_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "sim.compute_share", Unit: "share", Better: "higher"},
	{Name: "sim.emb_comm_share", Unit: "share", Better: "lower"},
	{Name: "sim.dense_share", Unit: "share", Better: "lower"},
	{Name: "comm.transport.msgs_per_iter", Unit: "count", Better: "lower"},
	{Name: "comm.transport.bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "comm.transport.send_busy_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "comm.transport.recv_wait_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "comm.wire.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "comm.wire.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "trace.attributed_cpu_share", Unit: "share", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// attributedFloor is the least share of the traced run's CPU that the
// per-layer costs must account for.
const attributedFloor = 0.5

// outcome accumulates one benchmark run's operations and metrics.
type outcome struct {
	attempted, failed int
	failures          []string
	notes             []string // diagnostics for standard error
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// finish checks that every expected metric is present and finite. A gap is
// a failed run: a missing number must never read as a passing one.
func (o *outcome) finish(want []metric) {
	for _, m := range want {
		v, ok := o.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail("metric %s missing or not finite", m.Name)
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never uses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

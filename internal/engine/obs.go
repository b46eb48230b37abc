package engine

import (
	"fmt"

	"hetgmp/internal/embed"
	"hetgmp/internal/obs"
)

// engineMetrics are the trainer's registry instruments: the per-iteration
// simulated-time histogram and one histogram per training phase. Together
// with the tracer spans they are the Section 6 time decomposition in
// queryable form.
type engineMetrics struct {
	iterTime *obs.Histogram
	phase    [obs.NumPhases]*obs.Histogram
	// overlapHidden and overlapComm record, per worker-iteration, the
	// simulated nanoseconds of embedding communication the overlap model
	// hid under compute and the serial communication demand it hid them
	// from. Their ratio is the run's overlap efficiency (Section 6) — the
	// analyzer reads it exactly instead of estimating it from scaled spans.
	overlapHidden *obs.Counter
	overlapComm   *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	m := &engineMetrics{
		iterTime:      reg.Histogram("engine.iteration.sim_nanos", obs.TimeEdges()),
		overlapHidden: reg.Counter("engine.overlap.hidden_sim_nanos"),
		overlapComm:   reg.Counter("engine.overlap.serial_comm_sim_nanos"),
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		m.phase[p] = reg.Histogram("engine.phase."+p.String()+".sim_nanos", obs.TimeEdges())
	}
	return m
}

// obsOn reports whether any observability sink is attached. All span
// emission is guarded by it so a metrics-off run pays one branch per
// iteration, not per-phase float math.
func (t *Trainer) obsOn() bool { return t.trace != nil || t.met != nil }

// obsSpan records one phase interval on both sinks: a tracer span and the
// phase-duration histogram. Called only from the engine's single-threaded
// barrier sections, after worker goroutines have joined.
func (t *Trainer) obsSpan(wid int, p obs.Phase, start, dur float64, epoch, iter int) {
	if dur <= 0 {
		return
	}
	t.trace.Span(wid, p, start, dur, epoch, iter)
	if t.met != nil {
		t.met.phase[p].ObserveSeconds(wid, dur)
	}
}

// observeIteration records one iteration's simulated duration.
func (t *Trainer) observeIteration(dt float64) {
	if t.met != nil {
		t.met.iterTime.ObserveSeconds(0, dt)
	}
}

// emitWorkerPhases lays one worker's serial phase sequence (embed fetch →
// dense compute → gradient push) onto the simulated interval
// [start, start+iterTime]. Under the overlap model the three phases ran
// partly concurrently, so each is scaled by iterTime/serial — the spans keep
// their relative proportions and exactly fill the worker's busy interval.
// Returns the interval's end.
func (t *Trainer) emitWorkerPhases(w *worker, start float64, epoch, iter int) float64 {
	serial := w.iterCompute + w.iterReadComm + w.iterUpdateComm
	f := 1.0
	if serial > 0 {
		f = w.iterTime / serial
	}
	if t.met != nil {
		// serial − iterTime is exactly the communication the overlap model
		// hid this iteration: Overlap·min(compute, comm).
		t.met.overlapComm.Add(w.id, int64((w.iterReadComm+w.iterUpdateComm)*1e9))
		t.met.overlapHidden.Add(w.id, int64((serial-w.iterTime)*1e9))
	}
	cur := start
	t.obsSpan(w.id, obs.PhaseEmbedFetch, cur, w.iterReadComm*f, epoch, iter)
	cur += w.iterReadComm * f
	t.obsSpan(w.id, obs.PhaseCompute, cur, w.iterCompute*f, epoch, iter)
	cur += w.iterCompute * f
	t.obsSpan(w.id, obs.PhaseGradPush, cur, w.iterUpdateComm*f, epoch, iter)
	return start + w.iterTime
}

// waitPhase attributes worker wait time by protocol: under a finite
// staleness bound s > 0 the per-iteration gap is the price of bounded
// asynchrony (staleness-wait, §5.3); under BSP (s = 0) the same gap is the
// synchronous barrier itself, and under ASP (s = ∞) it is a simulation
// artifact — both report as barrier-wait, so "staleness-wait" in a report
// is exactly the waiting a staleness bound caused. The analyzer's
// metamorphic suite pins this: BSP runs must report zero staleness-wait.
func (t *Trainer) waitPhase() obs.Phase {
	if t.cfg.Staleness > 0 && t.cfg.Staleness != embed.StalenessInf {
		return obs.PhaseWait
	}
	return obs.PhaseBarrier
}

// emitAllReduceObs emits one barrier-synchronised iteration's spans: each
// active worker's phases, its wait until the barrier at start+barrier (the
// slowest worker / busiest NIC), and the collective AllReduce; idle workers
// wait out the whole iteration.
func (t *Trainer) emitAllReduceObs(start, barrier, denseDt float64, epoch, iter int) {
	if !t.obsOn() {
		return
	}
	wait := t.waitPhase()
	for _, w := range t.workers {
		if w.iterSamples == 0 {
			t.obsSpan(w.id, wait, start, barrier+denseDt, epoch, iter)
			continue
		}
		end := t.emitWorkerPhases(w, start, epoch, iter)
		t.obsSpan(w.id, wait, end, start+barrier-end, epoch, iter)
		t.obsSpan(w.id, obs.PhaseAllReduce, start+barrier, denseDt, epoch, iter)
	}
	t.observeIteration(barrier + denseDt)
}

// initObs attaches the configured sinks and labels one trace track per
// simulated GPU. Distributed ranks are rank-tagged: metric snapshots carry
// rank/world, and trace events carry pid = rank so per-rank trace files
// concatenate into one Perfetto view with a lane per process.
func (t *Trainer) initObs() {
	cfg := &t.cfg
	if cfg.Metrics != nil {
		t.met = newEngineMetrics(cfg.Metrics)
	}
	t.trace = cfg.Tracer
	for w := 0; w < t.n; w++ {
		t.trace.SetThreadName(w, fmt.Sprintf("gpu%02d", w))
	}
	if t.dist != nil {
		cfg.Metrics.SetRank(t.dist.rank, t.n)
		t.trace.SetPID(t.dist.rank, fmt.Sprintf("rank%02d", t.dist.rank))
	}
}

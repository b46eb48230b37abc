package main

import (
	"time"

	"hetgmp/internal/comm"
)

// maxMeasure stops starting repetitions, whatever --seconds asks, so a run
// ends well inside its time limit.
const maxMeasure = 120 * time.Second

// hasReference reports whether w's digest must equal a flat single-process
// run of the same job.
func (w workload) hasReference() bool { return w.HotFrac > 0 || w.TCP }

// tamper, when set, rewrites digests before they are compared. Only the
// self-tests set it, to prove a wrong digest fails the run.
var tamper func(string) string

// train runs one job and applies every result check; a job that errors,
// panics or fails a check counts as failed and yields nil. want is the
// digest every rank must reproduce ("" accepts any).
func (o *outcome) train(label string, w workload, seed uint64, dir string, h hooks, want string) *job {
	o.attempted++
	j, err := runJob(w, seed, dir, h)
	if err != nil {
		o.fail("%s: %v", label, err)
		return nil
	}
	if tamper != nil {
		for r := range j.digests {
			j.digests[r] = tamper(j.digests[r])
		}
	}
	if got, wantN := j.res.SamplesProcessed, int64(epochs*j.trainSamples); got != wantN {
		o.fail("%s: processed %d samples, want %d", label, got, wantN)
		return nil
	}
	if j.res.FinalAUC < aucFloor {
		o.fail("%s: final AUC %.4f below floor %.2f", label, j.res.FinalAUC, aucFloor)
		return nil
	}
	if want == "" {
		want = j.digests[0]
	}
	for r, d := range j.digests {
		if d != want {
			o.fail("%s: rank %d digest %s, want %s", label, r, d, want)
			return nil
		}
	}
	return j
}

// datasets is how many input datasets the untraced pass cycles through.
const datasets = 8

// checkReference trains the flat single-process reference of w on seed,
// when w has one, and fails unless it reproduces digest. Callers run it
// after their measured jobs, so the reference's memory does not count in
// theirs.
func (o *outcome) checkReference(w workload, seed uint64, dir, digest string) {
	if w.hasReference() && digest != "" {
		o.train("reference", w.flat(), seed, dir, hooks{}, digest)
	}
}

// measure is the untraced pass: it trains on each seed's dataset in turn,
// cycling, until d has passed, every seed ran and the first seed ran twice.
// Wall-clock metrics are medians over jobs; the simulated-clock metrics,
// exact for a dataset, are means over seeds. Peak memory is read before
// the reference jobs run.
func measure(w workload, seeds []uint64, d time.Duration, dir string, o *outcome) {
	want := map[uint64]string{}
	var tput, cpu, setup, ckpt []float64
	var sim, emb, auc []float64
	start := time.Now()
	for i := 0; i <= len(seeds) || time.Since(start) < d; i++ {
		if time.Since(start) > maxMeasure {
			break
		}
		seed := seeds[i%len(seeds)]
		j := o.train("repetition", w, seed, dir, hooks{}, want[seed])
		if j == nil {
			continue
		}
		samples := float64(j.res.SamplesProcessed)
		tput = append(tput, samples/j.run.Seconds())
		cpu = append(cpu, float64(j.cpu.Microseconds())/samples)
		setup = append(setup, j.setup.Seconds())
		ckpt = append(ckpt, j.checkpoint)
		if want[seed] == "" {
			want[seed] = j.digests[0]
			sim = append(sim, j.res.Throughput)
			emb = append(emb, embBytesPerSample(j))
			auc = append(auc, j.res.FinalAUC)
		}
	}
	peak := peakRSSMiB()
	for _, seed := range seeds {
		o.checkReference(w, seed, dir, want[seed])
	}
	if len(tput) == 0 {
		return
	}
	o.values["train_samples_per_s"] = median(tput)
	o.values["train_cpu_us_per_sample"] = median(cpu)
	o.values["setup_s"] = median(setup)
	o.values["checkpoint_s"] = median(ckpt)
	o.values["peak_rss_mib"] = peak
	o.values["sim_samples_per_s"] = mean(sim)
	o.values["emb_bytes_per_sample"] = mean(emb)
	o.values["final_auc"] = mean(auc)
}

// embBytesPerSample is the fabric's embedding and meta traffic (every
// Breakdown category but dense) per sample: the paper's Figure 8 quantity.
func embBytesPerSample(j *job) float64 {
	b := j.res.Breakdown
	return float64(b.Bytes[comm.CatEmbedding]+b.Bytes[comm.CatMeta]) / float64(j.res.SamplesProcessed)
}

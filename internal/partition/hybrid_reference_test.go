package partition

import (
	"sort"

	"hetgmp/internal/bigraph"
)

// The strictly sequential greedy — the pre-parallel implementation, kept in
// test code as the quality oracle for the chunked-delta passes. Every vertex
// scores against fully up-to-date state, so this path defines the greedy
// semantics the chunked passes approximate. It is not bit-identical to them
// (the chunked passes score a block against pass-constant δc vectors), which
// is why a GOMAXPROCS=1 run of Hybrid cannot stand in for it.

// hybridReference runs Algorithm 1 with the sequential passes below through
// Hybrid's own round loop.
func hybridReference(g *bigraph.Bigraph, cfg HybridConfig) (*HybridResult, error) {
	return runHybrid(g, cfg, (*hybridState).refPassSamples, (*hybridState).refPassFeatures,
		(*hybridState).refReplicate)
}

// refPassSamples performs the sample-vertex half of the 1D pass: each
// sample moves to the partition minimising δc + δb.
//
// All score terms are normalised to comparable O(1) units: δc by the
// sample's maximum possible cost, the load gap δξ by the average load, and
// the communication gap δd by the average communication. Partitions at the
// hard balance cap are not candidates.
func (st *hybridState) refPassSamples(order []int32) {
	n := st.a.N
	avgSamp := float64(st.g.NumSamples) / float64(n)
	capSamp := int(avgSamp*(1+st.slack())) + 1
	costs := make([]float64, n)
	for _, s32 := range order {
		s := int(s32)
		cur := st.a.SampleOf[s]
		feats := st.g.SampleFeatures(s)

		// δc(v→i): priced fetches of this sample's non-local embeddings,
		// normalised by the worst case (every feature remote at max
		// weight).
		for i := 0; i < n; i++ {
			costs[i] = 0
		}
		var worst float64
		for _, x := range feats {
			home := st.a.PrimaryOf[x]
			var wmax float64
			for i := 0; i < n; i++ {
				w := st.weight(home, i)
				if home != i {
					costs[i] += w
				}
				if w > wmax {
					wmax = w
				}
			}
			worst += wmax
		}
		if worst == 0 {
			worst = 1
		}
		avgComm := st.commAvg()
		normComm := avgComm
		if normComm == 0 {
			normComm = 1
		}
		best, bestScore := -1, 0.0
		for i := 0; i < n; i++ {
			if i != cur && st.nSamp[i] >= capSamp {
				continue
			}
			load := st.nSamp[i]
			if i != cur {
				load++ // marginal: the sample would join i
			}
			deltaXi := (float64(load) - avgSamp) / avgSamp
			deltaD := (st.comm[i] - avgComm) / normComm
			score := costs[i]/worst + st.cfg.Alpha*deltaXi + st.cfg.Gamma*deltaD
			if best < 0 || score < bestScore {
				best, bestScore = i, score
			}
		}
		if best >= 0 && best != cur {
			st.moveSample(s, cur, best)
		}
	}
}

// refPassFeatures performs the embedding-vertex half of the 1D pass: each
// embedding's primary moves to the partition minimising δc + δb, with the
// same normalisation and hard cap as the sample pass.
func (st *hybridState) refPassFeatures(order []int32) {
	n := st.a.N
	avgFeat := float64(st.g.NumFeatures) / float64(n)
	capFeat := int(avgFeat*(1+st.slack())) + 1
	// Worst case per unit of degree: the maximum pairwise weight.
	var wmax float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if w := st.weight(i, j); w > wmax {
				wmax = w
			}
		}
	}
	for _, x := range order {
		cur := st.a.PrimaryOf[x]
		row := st.counts.Row(x)
		avgComm := st.commAvg()
		normComm := avgComm
		if normComm == 0 {
			normComm = 1
		}
		worst := float64(st.g.Degree[x]) * wmax
		if worst == 0 {
			worst = 1
		}
		best, bestScore := -1, 0.0
		for i := 0; i < n; i++ {
			if i != cur && st.nFeat[i] >= capFeat {
				continue
			}
			// δc: samples elsewhere fetch x from candidate home i.
			var c float64
			for j, cnt := range row {
				if j == i || cnt == 0 {
					continue
				}
				c += float64(cnt) * st.weight(i, j)
			}
			load := st.nFeat[i]
			if i != cur {
				load++
			}
			deltaX := (float64(load) - avgFeat) / avgFeat
			deltaD := (st.comm[i] - avgComm) / normComm
			score := c/worst + st.cfg.Beta*deltaX + st.cfg.Gamma*deltaD
			if best < 0 || score < bestScore {
				best, bestScore = i, score
			}
		}
		if best >= 0 && best != cur {
			st.moveFeature(x, cur, best)
		}
	}
}

// refReplicate performs the 2D vertex-cut pass by collecting every candidate
// and fully sorting per partition — the full-vocabulary scan + sort the
// top-k-heap path (replicateTopK) replaces.
func (st *hybridState) refReplicate(order []int32) {
	budget := st.cfg.ReplicaBudget
	if budget == 0 {
		budget = int(st.cfg.ReplicaFraction * float64(st.g.NumFeatures))
	}
	if budget <= 0 {
		return
	}
	for i := 0; i < st.a.N; i++ {
		cands := make([]candPair, 0, 1024)
		for _, x := range order {
			if st.a.PrimaryOf[x] == i {
				continue
			}
			if c := st.counts.Count(x, i); c > 0 {
				cands = append(cands, candPair{x: x, c: c})
			}
		}
		sort.Slice(cands, func(p, q int) bool {
			if cands[p].c != cands[q].c {
				return cands[p].c > cands[q].c
			}
			return cands[p].x < cands[q].x
		})
		// Re-derive this round's replica set from scratch: primaries may
		// have moved since last round, invalidating earlier choices.
		for _, x := range st.refPrevSecondaries(i) {
			st.a.replicas[x].Clear(i)
		}
		for k := 0; k < len(cands) && k < budget; k++ {
			st.a.AddReplica(cands[k].x, i)
		}
	}
}

// refPrevSecondaries lists embeddings currently replicated on partition i by
// scanning every replica bitset — O(F) per partition.
func (st *hybridState) refPrevSecondaries(i int) []int32 {
	var out []int32
	for x := range st.a.replicas {
		if st.a.replicas[x].Has(i) {
			out = append(out, int32(x))
		}
	}
	return out
}

package core

// headroomIndex is a bucketed per-resource-kind index over workers, keyed
// by their interval-initial headroom D_r(w). It answers "which K workers
// have the most type-r headroom?" in O(K + buckets) instead of scanning all
// W workers, which makes stageScore / bestSingleTask / stageViable cost
// O(stages × tasks × K) per tick (Config.CandidateWorkers).
//
// The index reflects the headroom vectors as of the *start* of the current
// scheduling interval: trial and commit mutations of D during the pass do
// not move workers between buckets (candidate selection is a pre-filter;
// scoring still reads the live D values, so scores stay exact). It is
// rebuilt from the fresh headroom snapshot every tick.
//
// Headroom values live in [0, 1] *per worker by construction*, including on
// heterogeneous clusters: D_r = max(0, (EPT−APT_r)/EPT) normalizes each
// worker's load by its own measured rate (APT_r = load_r/rate_r) against
// the shared EPT horizon, and D_mem = free/capacity normalizes by the
// worker's own capacity — no term depends on any other machine's profile,
// so mixed core counts, rates or memory sizes never push a live worker's
// headroom outside the grid. (Failed/draining workers carry D_mem < 0 from
// the -1 memFree sentinel; bucketOf clamps them into bucket 0, and every
// scoring gate rejects them regardless.) A fixed linear bucket grid
// therefore loses no generality; out-of-range values clamp to the boundary
// buckets. Within a bucket, workers appear in ascending worker ID, so the
// candidate order — and with it bestWorkerFor's earliest-candidate
// tie-break — depends only on this tick's headroom vectors.
//
// Note the index ranks by headroom D_r only — deliberately not by the
// interference-penalized score: the penalty scales scores by at most 1, so
// ranking by D_r remains an admissible candidate pre-filter, and scoring
// (which applies the penalty) stays exact for whichever candidates are
// examined. With K ≥ W every worker is examined and the index path is
// bit-identical to the exact scan, penalty on or off — the property the
// heterogeneous equivalence suites pin.
type headroomIndex struct {
	buckets [4][][]int32 // [kind][bucket] → worker ids, low bucket = low headroom
}

// idxBuckets is the bucket-grid resolution: 16 buckets over [0,1] order
// candidates usefully while keeping the descending bucket walk short.
const idxBuckets = 16

// bucketOf maps a headroom value to its bucket, clamping to [0, idxBuckets).
func bucketOf(v float64) int32 {
	if v <= 0 {
		return 0
	}
	b := int32(v * idxBuckets)
	if b >= idxBuckets {
		b = idxBuckets - 1
	}
	return b
}

// rebuild re-indexes every worker from d, reusing bucket storage.
func (ix *headroomIndex) rebuild(d []dVec) {
	for k := range ix.buckets {
		if ix.buckets[k] == nil {
			ix.buckets[k] = make([][]int32, idxBuckets)
		}
		for b := range ix.buckets[k] {
			ix.buckets[k][b] = ix.buckets[k][b][:0]
		}
		for wi := range d {
			b := bucketOf(d[wi][k])
			ix.buckets[k][b] = append(ix.buckets[k][b], int32(wi))
		}
	}
}

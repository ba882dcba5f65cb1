package core

import "testing"

// checkIndex asserts that ix indexes exactly the workers of d: each worker
// once per kind, in the bucket bucketOf names, and in ascending worker ID
// within every bucket — the order bestWorkerFor's earliest-candidate
// tie-break relies on.
func checkIndex(t *testing.T, ix *headroomIndex, d []dVec) {
	t.Helper()
	for k := range ix.buckets {
		seen := make([]int, len(d))
		for b, ids := range ix.buckets[k] {
			for i, id := range ids {
				wi := int(id)
				if wi < 0 || wi >= len(d) {
					t.Fatalf("kind %d bucket %d: stale worker %d (have %d workers)", k, b, wi, len(d))
				}
				seen[wi]++
				if want := bucketOf(d[wi][k]); int32(b) != want {
					t.Errorf("kind %d: worker %d in bucket %d, want %d (D=%v)", k, wi, b, want, d[wi][k])
				}
				if i > 0 && ids[i-1] >= id {
					t.Errorf("kind %d bucket %d: worker %d follows %d, want ascending IDs", k, b, id, ids[i-1])
				}
			}
		}
		for wi, n := range seen {
			if n != 1 {
				t.Errorf("kind %d: worker %d indexed %d times, want once", k, wi, n)
			}
		}
	}
}

func TestHeadroomIndexRebuild(t *testing.T) {
	// Values span the grid, its clamped edges (negative D_mem from the
	// failed-worker sentinel, exactly 1) and shared buckets, so several
	// workers land in one bucket and order matters.
	first := []dVec{
		{1, 0, 0.5, -1},
		{0.03, 0.97, 0.5, 1},
		{0.5, 0.5, 0, 0.25},
		{1, 0.03, 0.51, 0.25},
		{0, 1, 0.5, 0.99},
		{0.5, 0, 1, -1},
	}
	var ix headroomIndex
	ix.rebuild(first)
	checkIndex(t, &ix, first)

	// A second rebuild with different headroom and fewer workers must move
	// every worker to its new bucket and drop the vanished ones.
	second := []dVec{
		{0, 1, 0, 0.5},
		{1, 0, 0.25, 0.5},
		{0.5, 0.5, 0.25, 0},
		{0, 0.06, 1, 1},
	}
	ix.rebuild(second)
	checkIndex(t, &ix, second)
}

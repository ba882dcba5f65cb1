package perf

import (
	"bytes"
	"testing"
)

// TestLegacyServeEncodesStoredBlobs pins that the legacy_serve arm does the
// same work as the encode-once serve it is compared against: the bytes it
// marshals per fetch are exactly the blobs PartBlobsAppend serves from the
// store, contribution by contribution, in the same order.
func TestLegacyServeEncodesStoredBlobs(t *testing.T) {
	rt, d, total := wireStore()
	defer rt.Close()
	refs, err := rt.PartBlobsAppend(nil, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := legacyServe(nil, wireContribRows())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != wireContribs || len(legacy) != wireContribs {
		t.Fatalf("served %d stored and %d legacy contributions, want %d each",
			len(refs), len(legacy), wireContribs)
	}
	sum := 0
	for i := range refs {
		if refs[i].MTID != i {
			t.Fatalf("stored contribution %d has producer %d", i, refs[i].MTID)
		}
		if !bytes.Equal(refs[i].Data, legacy[i]) {
			t.Fatalf("contribution %d: legacy encoding differs from the stored blob", i)
		}
		sum += len(legacy[i])
	}
	if sum != total {
		t.Fatalf("legacy serve encodes %d bytes, store holds %d", sum, total)
	}
}

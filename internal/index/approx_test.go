package index

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// TestApproxBytesTracksHeap pins Stats().ApproxBytes to within ±35% of the
// live heap a generated corpus adds, both while every posting sits in the
// mutable heads and after a full merge into the compacted runs.
func TestApproxBytesTracksHeap(t *testing.T) {
	for _, c := range []struct{ segs, perSeg int }{{1500, 48}, {6000, 16}, {3000, 120}} {
		t.Run(fmt.Sprintf("segs=%d/per=%d", c.segs, c.perSeg), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.segs)))
			heap0 := liveHeap()
			db := New(0.5)
			db.SetCompactThreshold(-1)
			var prev []uint32
			for s := 0; s < c.segs; s++ {
				hs := make([]uint32, 0, c.perSeg)
				if len(prev) > 0 {
					hs = append(hs, prev[rng.Intn(len(prev))]) // a few shared holders
				}
				for len(hs) < c.perSeg {
					hs = append(hs, rng.Uint32())
				}
				fp := fingerprint.FromHashes(hs)
				prev = fp.Hashes()
				db.Update(segment.ID(fmt.Sprintf("wiki/s1/book%d#p%d", s/8, s%8)), fp)
			}
			check := func(state string) {
				t.Helper()
				grown := float64(liveHeap()) - float64(heap0)
				st := db.Stats()
				ratio := float64(st.ApproxBytes) / grown
				t.Logf("%s: %d postings (%d head), heap %.0f B, ApproxBytes %d (%.2fx)",
					state, st.Postings, st.HeadPostings, grown, st.ApproxBytes, ratio)
				if math.Abs(ratio-1) > 0.35 {
					t.Errorf("%s: ApproxBytes %d is %.2fx the measured heap %.0f B, want within ±35%%",
						state, st.ApproxBytes, ratio, grown)
				}
			}
			check("head")
			db.Compact()
			check("compacted")
			runtime.KeepAlive(db)
		})
	}
}

// liveHeap returns HeapAlloc after two full collections (the second one
// empties the sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

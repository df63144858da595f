package browserflow

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// heapBudgetPerPosting bounds the live heap one tracked posting costs the
// tag server: the index head posting, its share of the DBpar fingerprint
// and of the per-segment index, tracker and registry state. The layout
// measures ~41.4 B; the bound adds a 15% margin.
const heapBudgetPerPosting = 48

// TestHeapBudgetPerPosting builds an engine the way bftagd does (from a
// policy file with a confidential and a public service), observes a
// generated corpus through ObserveBatchFP and bounds the live heap it
// retains per posting.
func TestHeapBudgetPerPosting(t *testing.T) {
	const (
		segs    = 4800
		perSeg  = 48
		batch   = 64
		sharedK = 4 // hashes each segment shares with its predecessor
	)
	path := filepath.Join(t.TempDir(), "policy.json")
	policy := `{"services":[{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]},{"name":"docs"}]}`
	if err := os.WriteFile(path, []byte(policy), 0o600); err != nil {
		t.Fatal(err)
	}
	mw, err := NewFromPolicyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the engine's pools and lazily built tables so the measurement
	// holds only what the corpus adds.
	warm := []disclosure.BatchObservation{{Seg: "docs/warm#p0", FP: fingerprint.FromHashes([]uint32{1, 2, 3})}}
	if _, err := mw.Engine().ObserveBatchFP("docs", warm); err != nil {
		t.Fatal(err)
	}
	heap0 := liveHeap()
	rng := rand.New(rand.NewSource(1))
	var prev []uint32
	for b := 0; b < segs/batch; b++ {
		svc := "wiki"
		if b%2 == 1 {
			svc = "docs"
		}
		items := make([]disclosure.BatchObservation, batch)
		for i := range items {
			hs := make([]uint32, 0, perSeg)
			for k := 0; k < sharedK && len(prev) > 0; k++ {
				hs = append(hs, prev[k*len(prev)/sharedK]) // spread over shards
			}
			for len(hs) < perSeg {
				hs = append(hs, rng.Uint32())
			}
			sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
			prev = hs
			items[i] = disclosure.BatchObservation{
				Seg: segment.ID(fmt.Sprintf("%s/gen/page%d#p%d", svc, b, i)),
				FP:  fingerprint.FromHashes(hs),
			}
		}
		if _, err := mw.Engine().ObserveBatchFP(svc, items); err != nil {
			t.Fatal(err)
		}
	}
	grown := float64(liveHeap()) - float64(heap0)
	st := mw.Tracker().Paragraphs().Stats()
	if st.Postings < 200_000 || st.Segments < 4000 {
		t.Fatalf("corpus too small: %+v", st)
	}
	per := grown / float64(st.Postings)
	t.Logf("%d postings over %d segments (%d in heads): live heap %.1f MB, %.1f B/posting",
		st.Postings, st.Segments, st.HeadPostings, grown/1e6, per)
	if per > heapBudgetPerPosting {
		t.Errorf("live heap %.1f B/posting, budget %d", per, heapBudgetPerPosting)
	}
	runtime.KeepAlive(mw)
}

// liveHeap returns HeapAlloc after two full collections (the second one
// empties the sync.Pool victim caches other tests may have left behind).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

package tdm

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/lsds/browserflow/internal/segment"
)

// TestObserveKnownSegmentAllocFree pins re-observing a known segment in a
// service already storing it at zero allocations: it is on the keystroke
// path of every observe and on the replica apply path.
func TestObserveKnownSegmentAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under -race")
	}
	r := newFastRegistry(t)
	for _, svc := range []string{"wiki", "docs"} {
		seg := segment.ID(svc + "/a#p0")
		if err := r.Observe(seg, svc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := r.Observe(seg, svc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("re-observe in %s allocates %.1f objects/op, want 0", svc, allocs)
		}
	}
}

// TestObserveSegmentReturnsCopy pins the label-returning form: it records
// the same state as Observe and hands back a copy detached from the
// registry.
func TestObserveSegmentReturnsCopy(t *testing.T) {
	r := paperRegistry(t)
	label, err := r.ObserveSegment("wiki/a#p0", "wiki")
	if err != nil {
		t.Fatal(err)
	}
	if label.String() != "{tw}" || r.Label("wiki/a#p0").String() != "{tw}" {
		t.Fatalf("label %v, registry %v, want {tw}", label, r.Label("wiki/a#p0"))
	}
	label.AddExplicit("ti")
	if got := r.Label("wiki/a#p0").String(); got != "{tw}" {
		t.Errorf("mutating the returned copy changed the registry: %s", got)
	}
	if _, err := r.ObserveSegment("x#p0", "ghost"); err == nil {
		t.Error("unknown service accepted")
	}
}

// TestDefaultLabelSharesServiceLc pins copy-on-write of default-assigned
// explicit tags: mutating one label never reaches the service's Lc or the
// other labels sharing it.
func TestDefaultLabelSharesServiceLc(t *testing.T) {
	r := newFastRegistry(t)
	for _, seg := range []segment.ID{"wiki/a#p0", "wiki/b#p0"} {
		if err := r.Observe(seg, "wiki"); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AllocateTag("alice", "launch"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTagToSegment("alice", "wiki/a#p0", "launch"); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.labels["wiki/b#p0"].RemoveExplicit("tw")
	r.mu.Unlock()
	if got := r.Label("wiki/a#p0").Explicit().String(); got != "{launch, tw}" {
		t.Errorf("a explicit = %s, want {launch, tw}", got)
	}
	if got := r.Label("wiki/b#p0").Explicit().String(); got != "{}" {
		t.Errorf("b explicit = %s, want {}", got)
	}
	svc, err := r.Service("wiki")
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Confidentiality.String(); got != "{tw}" {
		t.Errorf("wiki Lc = %s, want {tw}", got)
	}
	if err := r.Observe("wiki/c#p0", "wiki"); err != nil {
		t.Fatal(err)
	}
	if got := r.Label("wiki/c#p0").Explicit().String(); got != "{tw}" {
		t.Errorf("fresh label explicit = %s, want {tw}", got)
	}
}

// registryBudgetPerSegment bounds the registry's live heap per segment
// observed the way the engine observes it (Observe, then RefreshImplicit
// with no sources), half in a confidential and half in a public service,
// with the compiled check table installed. The layout measures ~135 B; the
// bound is the 150 B design target.
const registryBudgetPerSegment = 150

func TestRegistryBytesPerSegment(t *testing.T) {
	const segs = 20000
	r := newFastRegistry(t)
	heap0 := liveHeap()
	for i := 0; i < segs; i++ {
		svc := "wiki"
		if i%2 == 1 {
			svc = "docs"
		}
		seg := segment.ID(fmt.Sprintf("%s/s1/book%d#p%d", svc, i/8, i%8))
		if err := r.Observe(seg, svc); err != nil {
			t.Fatal(err)
		}
		r.RefreshImplicit(seg, nil)
	}
	// The segment ID strings are the caller's; count the registry's own
	// structures only.
	var ids int
	for i := 0; i < segs; i++ {
		ids += len(fmt.Sprintf("wiki/s1/book%d#p%d", i/8, i%8))
	}
	per := (float64(liveHeap()) - float64(heap0) - float64(ids)) / segs
	t.Logf("registry: %.1f B/segment", per)
	if per > registryBudgetPerSegment {
		t.Errorf("registry holds %.1f B/segment, budget %d", per, registryBudgetPerSegment)
	}
	runtime.KeepAlive(r)
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

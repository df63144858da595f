package index

// Concurrency stress for the lock-striped DB, designed to run under `go
// test -race` (the Makefile's check target). Many goroutines update
// overlapping and disjoint segments while expiry and removal run; at
// quiescence the structural invariants must hold:
//
//   - per hash, postings are in ascending Seq order with at most one
//     posting per segment — so the authoritative holder is always the
//     oldest live poster; a single head holder sits inline, several spill
//     to a bucket;
//   - the O(1) Stats counters equal a full recount;
//   - every surviving DBpar entry's latest fingerprint has a posting (or
//     an older holder) for each of its hashes.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// stressFP builds a deterministic fingerprint whose hash set overlaps with
// neighbouring generations: generation g of worker w shares hashes with
// other workers (shared pool) and keeps worker-private hashes too.
func stressFP(worker, generation int) *fingerprint.Fingerprint {
	hs := make([]uint32, 0, 24)
	for j := 0; j < 12; j++ {
		// Shared pool: same values across workers → contended buckets.
		hs = append(hs, uint32((generation%5)*16+j)*0x9e3779b1)
	}
	for j := 0; j < 12; j++ {
		// Private: unique per worker → disjoint buckets.
		hs = append(hs, uint32(worker*100000+generation*16+j)*0x85ebca6b+1)
	}
	return fingerprint.FromHashes(hs)
}

func TestConcurrentUpdateExpireInvariants(t *testing.T) {
	const (
		workers     = 8
		generations = 150
	)
	db := New(0.5)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				// Two segments per worker: one long-lived (overlapping
				// hash pool) and one churning (removed every few rounds).
				stable := segment.ID(fmt.Sprintf("w%d/stable#p0", w))
				churn := segment.ID(fmt.Sprintf("w%d/churn#p%d", w, g%3))
				db.Update(stable, stressFP(w, g))
				db.Update(churn, stressFP(w+workers, g))
				if g%7 == 3 {
					db.RemoveSegment(churn)
				}
				// Queries race with the writers.
				db.OldestHolder(uint32((g % 5) * 16 * 0x9e3779b1))
				db.AuthoritativeOverlap(stable, stressFP(w, g))
				db.Stats()
			}
		}(w)
	}
	// Expiry runs concurrently with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			now := db.Now()
			if now > 200 {
				db.ExpireBefore(now - 200)
			}
		}
	}()
	wg.Wait()

	checkInvariants(t, db)

	// Final expiry of everything must leave a coherent empty DBhash.
	db.ExpireBefore(db.Now() + 1)
	checkInvariants(t, db)
	if s := db.Stats(); s.Postings != 0 || s.DistinctHashes != 0 || s.Segments != 0 {
		t.Fatalf("full expiry left non-empty stats: %+v", s)
	}
}

// checkInvariants asserts the quiescent structural invariants listed in
// the file comment, over the merged view of each shard's mutable head and
// compacted run.
func checkInvariants(t *testing.T, db *DB) {
	t.Helper()
	var distinct, postings, headN, dead int
	view := idsView{tab: &db.segtab}
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.RLock()
		shardHead := 0
		for h, p := range sh.head {
			if p.ref != spillRef {
				shardHead++
				continue
			}
			b := sh.spill[h]
			if b == nil || len(b.postings) < 2 {
				t.Errorf("hash %#x: spill marker without a bucket of two or more holders", h)
				continue
			}
			shardHead += len(b.postings)
			if b.members != nil {
				if len(b.members) != len(b.postings) {
					t.Errorf("hash %#x: member set size %d != postings %d", h, len(b.members), len(b.postings))
				}
				for _, q := range b.postings {
					if _, ok := b.members[q.ref]; !ok {
						t.Errorf("hash %#x: posting ref %d missing from member set", h, q.ref)
					}
				}
			}
		}
		for h := range sh.spill {
			if p, ok := sh.head[h]; !ok || p.ref != spillRef {
				t.Errorf("hash %#x: spill bucket without a spill marker in the head", h)
			}
		}
		if shardHead != sh.headPostings {
			t.Errorf("shard %d: headPostings counter %d != recount %d", si, sh.headPostings, shardHead)
		}
		headN += shardHead
		shardDead := 0
		for _, r := range sh.run.segs {
			if r == tombstoneRef {
				shardDead++
			}
		}
		if shardDead != sh.dead {
			t.Errorf("shard %d: dead counter %d != recount %d", si, sh.dead, shardDead)
		}
		dead += shardDead
		for g := 1; g < len(sh.run.hashes); g++ {
			if sh.run.hashes[g-1] >= sh.run.hashes[g] {
				t.Errorf("shard %d: run hashes out of order at group %d", si, g)
			}
		}
		for _, h := range shardHashesLocked(sh) {
			ps := db.appendMergedLocked(sh, h, &view, nil)
			if len(ps) == 0 {
				continue // fully tombstoned group awaiting merge
			}
			distinct++
			postings += len(ps)
			seen := make(map[segment.ID]bool, len(ps))
			for i, p := range ps {
				if seen[p.Seg] {
					t.Errorf("hash %#x: duplicate posting for %s", h, p.Seg)
				}
				seen[p.Seg] = true
				if i > 0 && ps[i-1].Seq > p.Seq {
					t.Errorf("hash %#x: postings out of Seq order at %d", h, i)
				}
			}
			oldest, ok := db.oldestLocked(sh, h, &view)
			if !ok || oldest != ps[0].Seg {
				t.Errorf("hash %#x: oldest = %q, want %q", h, oldest, ps[0].Seg)
			}
		}
		sh.mu.RUnlock()
	}
	var segs int
	for si := range db.segShards {
		ss := &db.segShards[si]
		ss.mu.RLock()
		segs += len(ss.par)
		ss.mu.RUnlock()
	}
	s := db.Stats()
	if s.DistinctHashes != distinct || s.Postings != postings || s.Segments != segs ||
		s.HeadPostings != headN || s.Tombstones != dead {
		t.Errorf("counters drifted: Stats %+v, recount distinct=%d postings=%d segments=%d head=%d dead=%d",
			s, distinct, postings, segs, headN, dead)
	}
}

// TestConcurrentExportImport races Export against writers and then
// verifies the exported snapshot is internally consistent and importable.
func TestConcurrentExportImport(t *testing.T) {
	db := New(0.5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 0; g < 60; g++ {
				db.Update(segment.ID(fmt.Sprintf("w%d#p%d", w, g%4)), stressFP(w, g))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			db.Export()
		}
	}()
	wg.Wait()

	data := db.Export()
	restored := New(0.5)
	if err := restored.Import(data); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, restored)
	got, want := restored.Stats(), db.Stats()
	if got.Postings != want.Postings || got.DistinctHashes != want.DistinctHashes || got.Segments != want.Segments {
		t.Fatalf("import drifted: got %+v want %+v", got, want)
	}
}

// Package index implements the two data structures behind BrowserFlow's
// text disclosure algorithm (§4.3, Algorithm 1):
//
//   - DBhash: associations of fingerprint hashes to the segments that were
//     observed to contain them, with first-seen timestamps, and
//   - DBpar: the last fingerprint calculated for each segment, plus its
//     disclosure threshold.
//
// First-seen timestamps are logical sequence numbers from an internal
// monotonic clock so that behaviour is deterministic; ordering semantics are
// identical to the paper's wall-clock timestamps. The oldest holder of a
// hash is the *authoritative* source for it, which is how the paper avoids
// misreporting disclosure when documents overlap (Figure 7).
//
// # Concurrency layout
//
// To serve per-keystroke observations from many concurrent devices, the DB
// is lock-striped instead of guarded by one RWMutex:
//
//   - DBhash is split into N hash shards keyed by the *top* bits of the
//     hash. Fingerprint hash slices are sorted, so a whole fingerprint's
//     hashes fall into consecutive runs per shard and each update/query
//     acquires every shard lock at most once.
//   - DBpar is split into N segment stripes keyed by an FNV-1a hash of the
//     segment ID, so observations of different segments never contend.
//   - The logical clock and the Stats counters (segments, distinct hashes,
//     postings) are atomics maintained incrementally by every mutation, so
//     Stats() never scans DBhash.
//
// # Storage layout
//
// Each hash shard is a small LSM tree: recent postings live in a mutable
// head, a pointer-free map of hash → (segment ref, seq) for the common
// single-holder hash with a side map of spill buckets for hashes several
// head segments hold, and the bulk lives in one immutable compacted run of
// columnar arrays (see run.go). Head and run postings alike name segments
// by refs into one per-DB intern table; Update interns its segment once,
// before any shard lock. Inline merges migrate the head into the run once
// it outgrows the merge policy, keeping steady-state memory near the
// compacted figure while the hot insert path still writes to a plain map.
// Verdict and oldest-holder semantics are identical in every merge state;
// only the physical layout changes.
//
// Lock ordering: a segment-stripe lock may be held while hash-shard locks
// are acquired (one at a time), never the reverse, and never two locks of
// the same kind at once. The segment-ref table is a leaf lock acquirable
// under any stripe or shard lock. Per-segment mutations (Update, RemoveSegment) hold
// the segment stripe for their whole critical section so that a segment's
// DBpar entry and its DBhash postings cannot interleave with a concurrent
// removal of the same segment.
package index

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// Posting records that a segment was observed containing a hash, at logical
// time Seq.
type Posting struct {
	Seg segment.ID
	Seq uint64
}

// Stats summarises the size of a DB, used by the scalability experiments
// (Figure 13). All fields are maintained incrementally, so reading them
// never scans the index.
type Stats struct {
	// Segments is the number of tracked segments.
	Segments int

	// DistinctHashes is the number of distinct fingerprint hashes in DBhash.
	DistinctHashes int

	// Postings is the total number of live (hash, segment) associations.
	Postings int

	// HeadPostings is how many postings still live in the mutable heads
	// (the rest are compacted); Tombstones counts dead run entries not yet
	// dropped by a merge.
	HeadPostings int
	Tombstones   int

	// ApproxBytes is a rough in-memory footprint estimate derived from the
	// counts (head map slots, run arrays, fingerprint sets, per-segment
	// entries). It tracks heap use to within about a third, not exactly.
	ApproxBytes int64
}

// DefaultShards is the lock-stripe count used by New. 64 stripes keep
// shard collision probability low for typical device concurrency while the
// fixed overhead (a mutex, a map header and run headers per stripe) stays
// negligible.
const DefaultShards = 64

// maxShards bounds the configurable stripe count.
const maxShards = 256

// memberMapThreshold is the posting count past which a spilled head
// bucket switches from a linear membership scan to a map. Most hashes have
// a handful of holders, where a scan over a small slice beats a map
// allocation; hot hashes shared by many segments get the O(1) set the
// moment the scan would start to hurt.
const memberMapThreshold = 8

// spillRef in a head slot marks a hash with more than one head holder:
// its postings live in the shard's spill map instead.
const spillRef = tombstoneRef - 1

// headPosting is one pointer-free head posting: the holder's interned
// segment ref and its first-seen seq. The seq is split into two 32-bit
// halves so the struct stays 4-byte aligned and a head map slot (uint32
// key + value) packs into 16 bytes; the GC never scans head maps.
type headPosting struct {
	ref          uint32
	seqLo, seqHi uint32
}

func newHeadPosting(ref uint32, seq uint64) headPosting {
	return headPosting{ref: ref, seqLo: uint32(seq), seqHi: uint32(seq >> 32)}
}

func (p headPosting) seq() uint64 { return uint64(p.seqHi)<<32 | uint64(p.seqLo) }

// spillBucket holds the head postings of a hash with several head
// holders, ordered by ascending seq (so postings[0] is always the oldest,
// i.e. authoritative, holder), plus an optional membership set for large
// buckets.
type spillBucket struct {
	postings []headPosting
	members  map[uint32]struct{} // nil until memberMapThreshold exceeded
}

// has reports whether ref already holds this hash.
func (b *spillBucket) has(ref uint32) bool {
	if b.members != nil {
		_, ok := b.members[ref]
		return ok
	}
	for _, p := range b.postings {
		if p.ref == ref {
			return true
		}
	}
	return false
}

// insert records p, which must not be present yet. It keeps postings
// sorted by seq: seqs are assigned before stripe locks are acquired, so a
// slightly older observation can arrive after a newer one; insertion from
// the back restores first-seen order (almost always a pure append).
func (b *spillBucket) insert(p headPosting) {
	i := len(b.postings)
	b.postings = append(b.postings, headPosting{})
	for i > 0 && b.postings[i-1].seq() > p.seq() {
		b.postings[i] = b.postings[i-1]
		i--
	}
	b.postings[i] = p
	if b.members != nil {
		b.members[p.ref] = struct{}{}
	} else if len(b.postings) > memberMapThreshold {
		b.members = make(map[uint32]struct{}, len(b.postings))
		for _, q := range b.postings {
			b.members[q.ref] = struct{}{}
		}
	}
}

// remove deletes ref's posting, preserving seq order. It returns the
// removed posting's seq (the digest maintenance needs it) and whether one
// was removed.
func (b *spillBucket) remove(ref uint32) (uint64, bool) {
	for i, p := range b.postings {
		if p.ref == ref {
			b.postings = append(b.postings[:i], b.postings[i+1:]...)
			if b.members != nil {
				delete(b.members, ref)
			}
			return p.seq(), true
		}
	}
	return 0, false
}

// hashShard is one DBhash stripe: a mutable head plus one compacted run.
type hashShard struct {
	mu sync.RWMutex

	// head maps each hash with head postings to its only holder inline,
	// or to spillRef when several segments hold it in the head.
	head  map[uint32]headPosting
	spill map[uint32]*spillBucket
	run   run

	// big holds shard-level membership sets for run groups with many live
	// postings (see bigGroupMin), keyed by hash → set of live segment refs.
	big map[uint32]map[uint32]struct{}

	headPostings int // live postings in head
	dead         int // tombstoned postings in run

	// digest is the XOR-fold of postingCode over the shard's live
	// postings, maintained incrementally (see digest.go).
	digest uint64
}

// headView returns h's head postings in ascending seq order. one receives
// an inline posting, so the single-holder case allocates nothing.
func (sh *hashShard) headView(h uint32, one *[1]headPosting) []headPosting {
	p, ok := sh.head[h]
	switch {
	case !ok:
		return nil
	case p.ref == spillRef:
		return sh.spill[h].postings
	default:
		one[0] = p
		return one[:]
	}
}

// headHas reports whether ref holds h in the head.
func (sh *hashShard) headHas(h, ref uint32) bool {
	p, ok := sh.head[h]
	if !ok {
		return false
	}
	if p.ref == spillRef {
		return sh.spill[h].has(ref)
	}
	return p.ref == ref
}

// headInsert adds p to h's head postings; p.ref must not hold h yet. A
// second holder moves the hash from its inline slot to a spill bucket.
func (sh *hashShard) headInsert(h uint32, p headPosting) {
	cur, ok := sh.head[h]
	switch {
	case !ok:
		sh.head[h] = p
	case cur.ref == spillRef:
		sh.spill[h].insert(p)
	default:
		b := &spillBucket{postings: make([]headPosting, 1, 2)}
		b.postings[0] = cur
		b.insert(p)
		if sh.spill == nil {
			sh.spill = make(map[uint32]*spillBucket)
		}
		sh.spill[h] = b
		sh.head[h] = headPosting{ref: spillRef}
	}
}

// headRemove deletes ref's head posting of h. It returns the removed
// posting's seq, whether one was removed and whether h left the head. A
// spill bucket shrinking to one holder moves back inline.
func (sh *hashShard) headRemove(h, ref uint32) (seq uint64, removed, gone bool) {
	p, ok := sh.head[h]
	switch {
	case !ok:
		return 0, false, false
	case p.ref == spillRef:
		b := sh.spill[h]
		if seq, removed = b.remove(ref); removed && len(b.postings) == 1 {
			sh.head[h] = b.postings[0]
			delete(sh.spill, h)
		}
		return seq, removed, false
	case p.ref == ref:
		delete(sh.head, h)
		return p.seq(), true, true
	default:
		return 0, false, false
	}
}

// resetHead empties the mutable head.
func (sh *hashShard) resetHead() {
	sh.head = make(map[uint32]headPosting)
	sh.spill = nil
}

// segShard is one DBpar stripe.
type segShard struct {
	mu  sync.RWMutex
	par map[segment.ID]*parEntry

	// digest is the XOR-fold of parCode over the stripe's entries,
	// maintained incrementally (see digest.go).
	digest uint64
}

type parEntry struct {
	fp        *fingerprint.Fingerprint
	threshold float64
	updated   uint64

	// posted is the ascending union of every hash this segment has posted
	// to DBhash, maintained under the segment stripe lock. Invariant:
	// h ∈ posted ⟹ the (h, seg) posting exists. Update diffs the new
	// fingerprint against it, so re-observations pay bucket probes only
	// for hashes the segment has never posted — zero for edits that
	// oscillate within previously seen content. nil means unknown (fresh
	// entry, restored snapshot, or reset by ExpireBefore), which makes
	// the next Update take the full insert path and rebuild it. While the
	// union equals a fingerprint's hash set it aliases that fingerprint's
	// immutable storage instead of copying it; a union that differs is a
	// fresh slice, so nothing ever writes through the alias.
	posted []uint32

	// code is this entry's current parCode contribution to the stripe
	// digest, cached so replacing the entry can XOR the old value out
	// without refolding the previous fingerprint.
	code uint64
}

// EvictFunc observes segments dropped by RemoveSegment or ExpireBefore. It
// is invoked synchronously after all DB locks are released, so the callback
// may call back into the DB (e.g. to purge dependent caches).
type EvictFunc func(segs []segment.ID)

// DB is one fingerprint database (the paper instantiates one per tracking
// granularity). It is safe for concurrent use.
type DB struct {
	defaultThreshold float64

	// hashShift maps a hash to its shard: h >> hashShift. Using the top
	// bits means a sorted fingerprint addresses shards in contiguous runs.
	hashShift uint
	segMask   uint32

	hashShards []hashShard
	segShards  []segShard

	// segtab interns segment IDs for the compacted runs.
	segtab segTable

	// clock is the logical time source; increments on every observation.
	clock atomic.Uint64

	// Incremental Stats counters.
	segments  atomic.Int64
	distinct  atomic.Int64
	postings  atomic.Int64
	headN     atomic.Int64 // live postings still in mutable heads
	deadN     atomic.Int64 // tombstones awaiting merge
	parHashes atomic.Int64 // total fingerprint hashes across DBpar

	// compactMin tunes the inline merge policy; see SetCompactThreshold.
	compactMin atomic.Int64

	hookMu  sync.RWMutex
	onEvict EvictFunc
}

// New returns an empty DB whose segments default to the given disclosure
// threshold (the paper's default is Tpar = 0.5, §6.1), striped across
// DefaultShards locks.
func New(defaultThreshold float64) *DB {
	return NewWithShards(defaultThreshold, DefaultShards)
}

// NewWithShards is New with an explicit stripe count. n is clamped to
// [1, 256] and rounded up to a power of two; n = 1 yields the single-lock
// layout of the original implementation (the DisableSharding ablation
// baseline).
func NewWithShards(defaultThreshold float64, n int) *DB {
	n = normalizeShards(n)
	db := &DB{
		defaultThreshold: defaultThreshold,
		hashShards:       make([]hashShard, n),
		segShards:        make([]segShard, n),
		segMask:          uint32(n - 1),
	}
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	db.hashShift = 32 - bits
	for i := range db.hashShards {
		db.hashShards[i].resetHead()
	}
	for i := range db.segShards {
		db.segShards[i].par = make(map[segment.ID]*parEntry)
	}
	return db
}

func normalizeShards(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NumShards returns the lock-stripe count.
func (db *DB) NumShards() int { return len(db.hashShards) }

// SetEvictHook installs fn to be notified of segments dropped by
// RemoveSegment and ExpireBefore. Passing nil clears the hook.
func (db *DB) SetEvictHook(fn EvictFunc) {
	db.hookMu.Lock()
	db.onEvict = fn
	db.hookMu.Unlock()
}

func (db *DB) notifyEvict(segs []segment.ID) {
	if len(segs) == 0 {
		return
	}
	db.hookMu.RLock()
	fn := db.onEvict
	db.hookMu.RUnlock()
	if fn != nil {
		fn(segs)
	}
}

func (db *DB) hashShardIdx(h uint32) int {
	return int(h >> db.hashShift) // shift of 32 (one shard) yields 0
}

func (db *DB) segShardFor(seg segment.ID) *segShard {
	// FNV-1a over the segment ID bytes.
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(seg); i++ {
		h ^= uint32(seg[i])
		h *= prime32
	}
	return &db.segShards[h&db.segMask]
}

// DefaultThreshold returns the threshold assigned to segments that have not
// set their own.
func (db *DB) DefaultThreshold() float64 { return db.defaultThreshold }

// Update stores fp as the latest fingerprint for seg and records first-seen
// postings for any hash not previously associated with seg. It returns the
// logical time of the update.
//
// Re-observations are diffed against the segment's posted-hash union
// (parEntry.posted): a hash the segment has posted before already has a
// first-seen posting that is never refreshed, so only hashes the segment
// has *never* posted pay a bucket probe and a shard lock. Per-edit index
// cost is therefore proportional to the novel content of the edit — an
// edit that oscillates within previously seen text touches no hash shard
// at all — mirroring the incremental evaluation of Algorithm 1.
//
// An Update whose hash set is identical to the segment's current
// fingerprint is a no-op: it neither ticks the logical clock nor
// refreshes the recency stamp. This matches the decision-cache fast path
// (a cache hit never reaches Update at all), so the index's evolution is
// a deterministic function of the observation stream — WAL replay after
// a crash reconstructs it byte-for-byte even though the in-memory cache
// restarts cold.
func (db *DB) Update(seg segment.ID, fp *fingerprint.Fingerprint) uint64 {
	ss := db.segShardFor(seg)
	ss.mu.Lock()
	entry, ok := ss.par[seg]
	if ok && entry.fp != nil && entry.fp.Equal(fp) {
		now := entry.updated
		ss.mu.Unlock()
		return now
	}
	now := db.clock.Add(1)
	if !ok {
		entry = &parEntry{threshold: db.defaultThreshold}
		ss.par[seg] = entry
		db.segments.Add(1)
	}
	if entry.fp != nil {
		db.parHashes.Add(int64(-entry.fp.Len()))
	}
	db.parHashes.Add(int64(fp.Len()))
	entry.fp = fp
	entry.updated = now
	hs := fp.Hashes()
	segKey := segDigestKey(string(seg))
	// Insert postings while still holding the segment stripe so that a
	// concurrent RemoveSegment(seg) cannot interleave between the DBpar
	// write and the DBhash writes (which would leak postings). The segment
	// is interned once here, before any shard lock, so every posting is
	// recorded as a ref.
	if entry.posted == nil {
		db.insertPostings(db.segtab.ref(seg), segKey, hs, now)
		entry.posted = hs
	} else if k := countMissing(hs, entry.posted); k > 0 {
		entry.posted = db.insertNewPostings(db.segtab.ref(seg), segKey, hs, entry.posted, k, now)
	}
	ss.digest ^= entry.code
	entry.code = parCode(segKey, entry)
	ss.digest ^= entry.code
	ss.mu.Unlock()
	return now
}

// countMissing returns |hs \ posted| for two ascending slices — a pure
// merge walk with no locks, the O(n) fast path that lets an Update whose
// hashes were all posted before skip DBhash entirely.
func countMissing(hs, posted []uint32) int {
	k, j := 0, 0
	for _, h := range hs {
		for j < len(posted) && posted[j] < h {
			j++
		}
		if j >= len(posted) || posted[j] != h {
			k++
		}
	}
	return k
}

// shardInsertLocked records the (h, ref, seq) posting unless it already
// exists in the shard's head or run. segKey is the segment's digest key.
// Caller holds sh.mu for writing.
func (db *DB) shardInsertLocked(sh *hashShard, h, ref uint32, segKey, seq uint64) {
	_, inHead := sh.head[h]
	if inHead && sh.headHas(h, ref) {
		return
	}
	runLive := false
	if g := sh.run.find(h, db.shardBitsOf()); g >= 0 {
		var inRun bool
		inRun, runLive = sh.runHasSeg(h, g, ref)
		if inRun {
			return
		}
	}
	if !inHead && !runLive {
		db.distinct.Add(1)
	}
	sh.headInsert(h, newHeadPosting(ref, seq))
	db.postings.Add(1)
	db.headN.Add(1)
	sh.headPostings++
	sh.digest ^= postingCode(h, segKey, seq)
}

// insertPostings records first-seen postings of the segment interned as
// ref for hs (ascending) at time now, locking each hash shard exactly once
// per contiguous run.
func (db *DB) insertPostings(ref uint32, segKey uint64, hs []uint32, now uint64) {
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.Lock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			db.shardInsertLocked(sh, hs[j], ref, segKey, now)
		}
		db.maybeCompactLocked(sh)
		sh.mu.Unlock()
		i = j
	}
}

// insertNewPostings records postings for the k hashes of hs (ascending)
// that are absent from posted (ascending) and returns the union. Hashes
// present in posted already have first-seen postings, which are never
// refreshed, so skipping them is behaviour-identical while avoiding their
// bucket probes and shard locks. New hashes arrive in ascending order, so
// each hash shard is still locked at most once per contiguous run. When
// hs covers posted the union is hs itself and no slice is built.
func (db *DB) insertNewPostings(ref uint32, segKey uint64, hs, posted []uint32, k int, now uint64) []uint32 {
	var union []uint32
	build := len(posted)+k != len(hs)
	if build {
		union = make([]uint32, 0, len(posted)+k)
	}
	var (
		sh  *hashShard
		cur = -1
		j   = 0
	)
	for _, h := range hs {
		for j < len(posted) && posted[j] < h {
			if build {
				union = append(union, posted[j])
			}
			j++
		}
		if build {
			union = append(union, h)
		}
		if j < len(posted) && posted[j] == h {
			j++
			continue // already posted by an earlier update
		}
		if si := db.hashShardIdx(h); si != cur {
			if sh != nil {
				db.maybeCompactLocked(sh)
				sh.mu.Unlock()
			}
			sh = &db.hashShards[si]
			sh.mu.Lock()
			cur = si
		}
		db.shardInsertLocked(sh, h, ref, segKey, now)
	}
	if sh != nil {
		db.maybeCompactLocked(sh)
		sh.mu.Unlock()
	}
	if !build {
		return hs
	}
	return append(union, posted[j:]...)
}

// removePostings drops seg's postings for hs (ascending): head postings are
// deleted in place, run postings are tombstoned for the next merge.
func (db *DB) removePostings(seg segment.ID, hs []uint32) {
	ref, ok := db.segtab.refOf(seg)
	if !ok {
		return // never posted: every posting carries an interned ref
	}
	segKey := segDigestKey(string(seg))
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.Lock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			h := hs[j]
			g := sh.run.find(h, db.shardBitsOf())
			if seq, removed, gone := sh.headRemove(h, ref); removed {
				db.postings.Add(-1)
				db.headN.Add(-1)
				sh.headPostings--
				sh.digest ^= postingCode(h, segKey, seq)
				if gone {
					runLive := false
					if g >= 0 {
						_, _, runLive = sh.run.firstLive(g)
					}
					if !runLive {
						db.distinct.Add(-1)
					}
				}
				continue
			}
			if g < 0 {
				continue
			}
			seq, killed, anyLive := sh.tombstone(h, g, ref)
			if killed {
				db.postings.Add(-1)
				db.deadN.Add(1)
				sh.digest ^= postingCode(h, segKey, seq)
				if !anyLive {
					if _, ok := sh.head[h]; !ok {
						db.distinct.Add(-1)
					}
				}
			}
		}
		db.maybeCompactLocked(sh)
		sh.mu.Unlock()
		i = j
	}
}

// SetThreshold overrides the disclosure threshold of seg (creating the
// entry if needed), modelling per-paragraph thresholds set by authors
// (§4.2).
func (db *DB) SetThreshold(seg segment.ID, t float64) {
	ss := db.segShardFor(seg)
	ss.mu.Lock()
	entry, ok := ss.par[seg]
	if !ok {
		entry = &parEntry{fp: fingerprint.FromHashes(nil)}
		ss.par[seg] = entry
		db.segments.Add(1)
	}
	entry.threshold = t
	ss.digest ^= entry.code
	entry.code = parCode(segDigestKey(string(seg)), entry)
	ss.digest ^= entry.code
	ss.mu.Unlock()
}

// Threshold returns seg's disclosure threshold, or the default if seg is
// unknown.
func (db *DB) Threshold(seg segment.ID) float64 {
	ss := db.segShardFor(seg)
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if entry, ok := ss.par[seg]; ok {
		return entry.threshold
	}
	return db.defaultThreshold
}

// Fingerprint returns the latest fingerprint stored for seg.
func (db *DB) Fingerprint(seg segment.ID) (*fingerprint.Fingerprint, bool) {
	ss := db.segShardFor(seg)
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	entry, ok := ss.par[seg]
	if !ok || entry.fp == nil {
		return nil, false
	}
	return entry.fp, true
}

// Origin returns seg's latest fingerprint and threshold in one stripe
// acquisition — the candidate-evaluation read path of Algorithm 1.
func (db *DB) Origin(seg segment.ID) (fp *fingerprint.Fingerprint, threshold float64, ok bool) {
	ss := db.segShardFor(seg)
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	entry, ok := ss.par[seg]
	if !ok {
		return nil, db.defaultThreshold, false
	}
	return entry.fp, entry.threshold, entry.fp != nil
}

// OldestHolder returns the segment first observed with hash h — the
// authoritative source for h.
func (db *DB) OldestHolder(h uint32) (segment.ID, bool) {
	sh := &db.hashShards[db.hashShardIdx(h)]
	view := idsView{tab: &db.segtab}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return db.oldestLocked(sh, h, &view)
}

// SetClockFloor raises the logical clock to at least floor (it never moves
// the clock backwards). Partition nodes call this with the router's
// Lamport stamp before applying a routed write, so first-observation
// sequence numbers across independent partitions order the same way the
// single shared clock of one node would.
func (db *DB) SetClockFloor(floor uint64) {
	for {
		cur := db.clock.Load()
		if cur >= floor {
			return
		}
		if db.clock.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// OldestRef names the authoritative (oldest) holder of the Idx'th query
// hash together with the logical time of its first observation. The Seq
// is what lets a router compare authority claims across partitions: each
// partition resolves its local oldest holder, and the partition-spanning
// oldest is simply the reply with the smallest Seq.
type OldestRef struct {
	Idx int
	Seg segment.ID
	Seq uint64
}

// AppendOldestRefs appends an OldestRef for every hash in hs (ascending,
// as returned by Fingerprint.Hashes) that has at least one holder, and
// returns the extended slice. Like AppendOldestHolders it locks each hash
// shard at most once and reuses caller capacity; unlike it, each entry
// carries the hash's index and the holder's first-observation sequence so
// cross-partition authority can be merged without a second round trip.
func (db *DB) AppendOldestRefs(hs []uint32, out []OldestRef) []OldestRef {
	view := idsView{tab: &db.segtab}
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.RLock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			if ref, seq, ok := db.oldestRefLocked(sh, hs[j]); ok {
				out = append(out, OldestRef{Idx: j, Seg: view.id(ref), Seq: seq})
			}
		}
		sh.mu.RUnlock()
		i = j
	}
	return out
}

// AppendOldestHolders appends the oldest holder of every hash in hs
// (ascending, as returned by Fingerprint.Hashes) to out and returns the
// extended slice. Hashes with no holder contribute nothing; duplicates are
// not removed. Each hash shard is locked at most once, which is what makes
// the candidate-discovery loop of Algorithm 1 cheap under sharding, and
// caller-provided capacity in out is reused without reallocation.
func (db *DB) AppendOldestHolders(hs []uint32, out []segment.ID) []segment.ID {
	view := idsView{tab: &db.segtab}
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.RLock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			if seg, ok := db.oldestLocked(sh, hs[j], &view); ok {
				out = append(out, seg)
			}
		}
		sh.mu.RUnlock()
		i = j
	}
	return out
}

// AppendHolders appends every segment associated with h, oldest first, to
// out and returns the extended slice — the capacity-reusing form of
// Holders for batch callers.
func (db *DB) AppendHolders(h uint32, out []segment.ID) []segment.ID {
	sh := &db.hashShards[db.hashShardIdx(h)]
	view := idsView{tab: &db.segtab}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var one [1]headPosting
	sh.run.mergeGroup(sh.run.find(h, db.shardBitsOf()), sh.headView(h, &one), func(ref uint32, _ uint64) {
		out = append(out, view.id(ref))
	})
	return out
}

// Holders returns every segment associated with h, oldest first.
func (db *DB) Holders(h uint32) []segment.ID {
	return db.AppendHolders(h, nil)
}

// AuthoritativeCount returns |Fauthoritative(seg)|: how many of seg's
// fingerprint hashes have seg as their oldest holder.
func (db *DB) AuthoritativeCount(seg segment.ID) int {
	fp, _, ok := db.Origin(seg)
	if !ok || fp.Empty() {
		return 0
	}
	ref, ok := db.segtab.refOf(seg)
	if !ok {
		return 0 // never posted, so it holds no hash
	}
	hs := fp.Hashes()
	n := 0
	for i := 0; i < len(hs); {
		si := db.hashShardIdx(hs[i])
		sh := &db.hashShards[si]
		j := i
		sh.mu.RLock()
		for ; j < len(hs) && db.hashShardIdx(hs[j]) == si; j++ {
			if db.oldestIs(sh, hs[j], ref) {
				n++
			}
		}
		sh.mu.RUnlock()
		i = j
	}
	return n
}

// AuthoritativeOverlap returns |Fauthoritative(src) ∩ target| — the core
// quantity of the adjusted disclosure metrics of §4.3 — together with
// |F(src)|. It returns (0, 0) if src has no stored fingerprint.
//
// Both hash sets are sorted, so the intersection is a single linear merge;
// oldest-holder checks for the common hashes acquire each hash shard at
// most once and the whole call allocates nothing.
func (db *DB) AuthoritativeOverlap(src segment.ID, target *fingerprint.Fingerprint) (overlap, srcLen int) {
	fp, _, ok := db.Origin(src)
	if !ok {
		return 0, 0
	}
	srcLen = fp.Len()
	ref, posted := db.segtab.refOf(src)
	if !posted {
		return 0, srcLen // never posted, so it is authoritative for nothing
	}
	a, b := fp.Hashes(), target.Hashes()
	var (
		sh       *hashShard
		curShard = -1
	)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			h := a[i]
			if si := db.hashShardIdx(h); si != curShard {
				if sh != nil {
					sh.mu.RUnlock()
				}
				sh = &db.hashShards[si]
				sh.mu.RLock()
				curShard = si
			}
			if db.oldestIs(sh, h, ref) {
				overlap++
			}
			i++
			j++
		}
	}
	if sh != nil {
		sh.mu.RUnlock()
	}
	return overlap, srcLen
}

// oldestIs reports whether the segment interned as ref is the
// authoritative holder of h. Caller holds sh.mu at least for reading.
func (db *DB) oldestIs(sh *hashShard, h, ref uint32) bool {
	r, _, ok := db.oldestRefLocked(sh, h)
	return ok && r == ref
}

// RemoveSegment deletes seg's fingerprint and all its postings. Subsequent
// oldest-holder queries may promote younger segments to authoritative.
func (db *DB) RemoveSegment(seg segment.ID) {
	ss := db.segShardFor(seg)
	ss.mu.Lock()
	entry, ok := ss.par[seg]
	if !ok {
		ss.mu.Unlock()
		return
	}
	delete(ss.par, seg)
	db.segments.Add(-1)
	ss.digest ^= entry.code
	if entry.fp != nil {
		db.parHashes.Add(int64(-entry.fp.Len()))
		db.removePostings(seg, entry.fp.Hashes())
	}
	ss.mu.Unlock()
	db.notifyEvict([]segment.ID{seg})
}

// ExpireBefore removes postings whose first observation is older than the
// given logical time, and drops segments whose last update is older. This
// implements the periodic removal of old fingerprints recommended in §4.4.
// It returns the number of postings removed.
//
// Shards that lose postings are compacted on the way out, so expiry both
// frees the postings and reclaims the tombstone space in one pass.
func (db *DB) ExpireBefore(seq uint64) int {
	removed := 0
	view := idsView{tab: &db.segtab}
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		liveBefore := sh.liveHashCountLocked()
		shardRemoved := 0
		// Run pass: tombstone expired entries group by group.
		for g := range sh.run.hashes {
			s, e := sh.run.bounds(g)
			for i := s; i < e; i++ {
				if sh.run.segs[i] == tombstoneRef || sh.run.seqs[i] >= seq {
					continue
				}
				if set, ok := sh.big[sh.run.hashes[g]]; ok {
					delete(set, sh.run.segs[i])
				}
				sh.digest ^= postingCode(sh.run.hashes[g],
					segDigestKey(string(view.id(sh.run.segs[i]))), sh.run.seqs[i])
				sh.run.segs[i] = tombstoneRef
				sh.dead++
				db.deadN.Add(1)
				shardRemoved++
			}
		}
		// Head pass: drop expired postings; the merge below folds the
		// survivors into the run.
		expire := func(h uint32, p headPosting) {
			shardRemoved++
			sh.headPostings--
			db.headN.Add(-1)
			sh.digest ^= postingCode(h, segDigestKey(string(view.id(p.ref))), p.seq())
		}
		for h, p := range sh.head {
			if p.ref != spillRef {
				if p.seq() < seq {
					expire(h, p)
					delete(sh.head, h)
				}
				continue
			}
			b := sh.spill[h]
			kept := b.postings[:0]
			for _, q := range b.postings {
				if q.seq() >= seq {
					kept = append(kept, q)
				} else {
					expire(h, q)
				}
			}
			if len(kept) == len(b.postings) {
				continue
			}
			// Something expired, so the merge below runs and drops the
			// bucket; only its postings need to be right until then.
			b.postings = kept
			if len(kept) == 0 {
				delete(sh.head, h)
				delete(sh.spill, h)
			}
		}
		if shardRemoved > 0 || sh.dead > 0 {
			db.compactShardLocked(sh)
			// After a merge the live hashes are exactly the run's groups.
			db.distinct.Add(int64(len(sh.run.hashes) - liveBefore))
		}
		removed += shardRemoved
		sh.mu.Unlock()
	}
	db.postings.Add(int64(-removed))

	var evicted []segment.ID
	for si := range db.segShards {
		ss := &db.segShards[si]
		ss.mu.Lock()
		for seg, entry := range ss.par {
			if entry.updated < seq {
				delete(ss.par, seg)
				ss.digest ^= entry.code
				if entry.fp != nil {
					db.parHashes.Add(int64(-entry.fp.Len()))
				}
				evicted = append(evicted, seg)
			} else if removed > 0 {
				// Expired postings may belong to surviving segments, so
				// their posted-hash unions can no longer be trusted; reset
				// them and let the next Update rebuild via the full insert
				// path (which re-creates any purged posting, exactly as
				// the probe-per-hash path would).
				entry.posted = nil
			}
		}
		ss.mu.Unlock()
	}
	db.segments.Add(int64(-len(evicted)))
	db.notifyEvict(evicted)
	return removed
}

// Now returns the current logical time.
func (db *DB) Now() uint64 { return db.clock.Load() }

// Segments returns the IDs of all tracked segments, sorted.
func (db *DB) Segments() []segment.ID {
	out := make([]segment.ID, 0, db.segments.Load())
	for si := range db.segShards {
		ss := &db.segShards[si]
		ss.mu.RLock()
		for seg := range ss.par {
			out = append(out, seg)
		}
		ss.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns current size statistics from the incrementally maintained
// counters; no shard is locked and no structure is scanned.
func (db *DB) Stats() Stats {
	s := Stats{
		Segments:       int(db.segments.Load()),
		DistinctHashes: int(db.distinct.Load()),
		Postings:       int(db.postings.Load()),
		HeadPostings:   int(db.headN.Load()),
		Tombstones:     int(db.deadN.Load()),
	}
	// Rough per-item costs of the layout, fitted to measured heap growth
	// (see TestApproxBytesTracksHeap). A head posting is one 16-byte slot
	// of a pointer-free swiss-table map (uint32 key + ref and split seq)
	// plus its control byte, at the ~60% average fill of a doubling table
	// ≈ 28 B; a compacted posting pays 4 B ref + 8 B seq plus, at about
	// one posting per hash, 8 B of hash and group offset and the skip
	// table ≈ 22 B. DBpar keeps each fingerprint hash once (4 B; the
	// posted union aliases it until an edit drops a hash). A segment
	// costs ≈ 280 B: its DBpar map slot, entry and fingerprint header,
	// its ref-table slot and map entry, its ID bytes and size-class slack.
	compacted := s.Postings - s.HeadPostings
	s.ApproxBytes = int64(s.HeadPostings)*28 +
		int64(compacted+s.Tombstones)*22 +
		int64(db.parHashes.Load())*4 +
		int64(s.Segments)*280
	return s
}

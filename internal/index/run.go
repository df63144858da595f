package index

// Compacted posting runs. Each hash shard pairs a small mutable head (a
// pointer-free map of hash → ref and seq, see hashShard) with one
// immutable compacted run: four parallel columnar arrays holding every
// merged posting of the shard, ordered by (hash, seq).
//
//	hashes[i]            i-th distinct hash, strictly ascending
//	starts[i]..starts[i+1]  the posting group of hashes[i]
//	segs[k]              interned segment ref of posting k (tombstoneRef if dead)
//	seqs[k]              first-seen logical time of posting k, ascending per group
//
// Segment IDs are interned once per DB into a ref table when a segment is
// first posted, so head and run postings alike carry a 4-byte ref instead
// of a string header; a run posting costs 4+8 bytes. Dense per-hash holder
// sets become flat sorted ref arrays that share one string table.
//
// Lookup cost is one small-map probe (head) plus a radix-skip bounded
// binary search (run): a 256-entry table per run keyed by the first byte
// below the shard bits narrows the search to ~1/256th of the run before
// the binary search starts, so at 10M+ hashes a probe touches a handful
// of contiguous cache lines instead of a giant hash map.
//
// Deletions tombstone run entries in place (segs[k] = tombstoneRef); merge
// drops tombstones. Merging happens inline under the shard write lock when
// the head outgrows the merge policy (see maybeCompactLocked), from
// DB.Compact, and after every ExpireBefore pass.

import (
	"sort"
	"sync"

	"github.com/lsds/browserflow/internal/segment"
)

// tombstoneRef marks a dead posting inside a compacted run.
const tombstoneRef = ^uint32(0)

// bigGroupMin is the live-posting count past which a run group gets a
// shard-level membership set (big), so inserting yet another holder of a
// hot hash (a popular passage held by thousands of paragraphs) is O(1)
// instead of a linear group scan.
const bigGroupMin = 64

// defaultCompactMin is the default minimum head size (postings) before an
// inline merge is considered; see SetCompactThreshold.
const defaultCompactMin = 4096

// segTable interns segment IDs to dense uint32 refs. It is append-only:
// refs are never reassigned, so a slice snapshot taken after a ref was
// published resolves that ref forever. It is a leaf lock: no other DB lock
// is ever acquired while holding it.
type segTable struct {
	mu   sync.RWMutex
	ids  []segment.ID
	refs map[segment.ID]uint32
}

// ref interns seg, returning its stable ref.
func (t *segTable) ref(seg segment.ID) uint32 {
	t.mu.RLock()
	r, ok := t.refs[seg]
	t.mu.RUnlock()
	if ok {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.refs[seg]; ok {
		return r
	}
	if len(t.ids) >= int(spillRef) {
		panic("index: segment ref table full")
	}
	if t.refs == nil {
		t.refs = make(map[segment.ID]uint32)
	}
	r = uint32(len(t.ids))
	t.ids = append(t.ids, seg)
	t.refs[seg] = r
	return r
}

// refOf looks seg up without interning it.
func (t *segTable) refOf(seg segment.ID) (uint32, bool) {
	t.mu.RLock()
	r, ok := t.refs[seg]
	t.mu.RUnlock()
	return r, ok
}

// snapshot returns the current id slice. Entries are immutable once
// appended, so the snapshot resolves every ref published before the call.
func (t *segTable) snapshot() []segment.ID {
	t.mu.RLock()
	ids := t.ids[:len(t.ids):len(t.ids)]
	t.mu.RUnlock()
	return ids
}

// reset empties the table (Import / LoadSnapshot only; must not run
// concurrently with DB operations).
func (t *segTable) reset() {
	t.mu.Lock()
	t.ids = nil
	t.refs = nil
	t.mu.Unlock()
}

// idsView lazily resolves refs to segment IDs. The snapshot is refreshed
// only when a ref beyond it appears, which can only be a ref published
// after the view was created (snapshots cover all earlier refs).
type idsView struct {
	tab *segTable
	ids []segment.ID
}

func (v *idsView) id(ref uint32) segment.ID {
	if int(ref) >= len(v.ids) {
		v.ids = v.tab.snapshot()
	}
	return v.ids[ref]
}

// run is one shard's compacted posting arrays. Zero value = empty run.
type run struct {
	hashes []uint32
	starts []uint32 // len(hashes)+1 prefix offsets into segs/seqs; nil when empty
	segs   []uint32
	seqs   []uint64
	skip   []uint32 // 257-entry radix index over hashes, keyed by radixByte
}

// radixByte extracts the first 8 hash bits below the shard-selecting bits,
// the key of the per-run skip table.
func radixByte(h uint32, shardBits uint) uint32 {
	return (h << shardBits) >> 24
}

// find returns the group index of h, or -1.
func (r *run) find(h uint32, shardBits uint) int {
	if len(r.hashes) == 0 {
		return -1
	}
	b := radixByte(h, shardBits)
	lo, hi := int(r.skip[b]), int(r.skip[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.hashes) && r.hashes[lo] == h {
		return lo
	}
	return -1
}

// bounds returns the posting range of group g.
func (r *run) bounds(g int) (int, int) {
	return int(r.starts[g]), int(r.starts[g+1])
}

// firstLive returns the oldest live posting of group g.
func (r *run) firstLive(g int) (ref uint32, seq uint64, ok bool) {
	s, e := r.bounds(g)
	for i := s; i < e; i++ {
		if r.segs[i] != tombstoneRef {
			return r.segs[i], r.seqs[i], true
		}
	}
	return 0, 0, false
}

// buildSkip recomputes the radix skip table from hashes.
func (r *run) buildSkip(shardBits uint) {
	if len(r.hashes) == 0 {
		r.skip = nil
		return
	}
	if r.skip == nil {
		r.skip = make([]uint32, 257)
	}
	next := 0
	for b := 0; b < 256; b++ {
		r.skip[b] = uint32(next)
		for next < len(r.hashes) && radixByte(r.hashes[next], shardBits) == uint32(b) {
			next++
		}
	}
	r.skip[256] = uint32(len(r.hashes))
}

// shardBitsOf converts the DB's hash shift back into the shard-selecting
// bit count used by the radix tables.
func (db *DB) shardBitsOf() uint { return 32 - db.hashShift }

// runHasSeg reports whether the run group g holds a live posting for ref,
// and whether the group has any live posting at all. The shard's big set
// for h, when present, answers both in O(1).
func (sh *hashShard) runHasSeg(h uint32, g int, ref uint32) (inRun, anyLive bool) {
	if set, ok := sh.big[h]; ok {
		_, in := set[ref]
		return in, len(set) > 0
	}
	s, e := sh.run.bounds(g)
	for i := s; i < e; i++ {
		r := sh.run.segs[i]
		if r == tombstoneRef {
			continue
		}
		anyLive = true
		if r == ref {
			return true, true
		}
	}
	return false, anyLive
}

// tombstone marks (h, ref) dead in group g, returning the killed
// posting's seq (for digest maintenance), whether a live posting was
// killed and whether any live posting remains in the group.
func (sh *hashShard) tombstone(h uint32, g int, ref uint32) (seq uint64, killed, anyLive bool) {
	s, e := sh.run.bounds(g)
	for i := s; i < e; i++ {
		if sh.run.segs[i] == ref {
			seq = sh.run.seqs[i]
			sh.run.segs[i] = tombstoneRef
			killed = true
			break
		}
	}
	if killed {
		sh.dead++
		if set, ok := sh.big[h]; ok {
			delete(set, ref)
		}
	}
	for i := s; i < e; i++ {
		if sh.run.segs[i] != tombstoneRef {
			return seq, killed, true
		}
	}
	return seq, killed, false
}

// liveHashCountLocked counts hashes with at least one live posting (every
// head key holds at least one posting; run groups count only when live and
// not shadowed by head postings for the same hash).
func (sh *hashShard) liveHashCountLocked() int {
	n := len(sh.head)
	for g := range sh.run.hashes {
		h := sh.run.hashes[g]
		if _, ok := sh.head[h]; ok {
			continue
		}
		if _, _, ok := sh.run.firstLive(g); ok {
			n++
		}
	}
	return n
}

// shouldCompactLocked is the inline merge policy: merge when the head holds
// at least min postings AND at least a quarter of the run's live size (so
// each posting is rewritten O(1) amortised times), or when tombstones
// dominate the run.
func (db *DB) shouldCompactLocked(sh *hashShard) bool {
	min := db.compactMin.Load()
	if min < 0 {
		return false
	}
	if min == 0 {
		min = defaultCompactMin
	}
	runLive := len(sh.run.segs) - sh.dead
	if sh.headPostings >= int(min) && sh.headPostings*4 >= runLive {
		return true
	}
	return sh.dead >= int(min) && sh.dead*2 >= len(sh.run.segs)
}

func (db *DB) maybeCompactLocked(sh *hashShard) {
	if db.shouldCompactLocked(sh) {
		db.compactShardLocked(sh)
	}
}

// Compact merges every shard's mutable head into its compacted run and
// drops tombstones. It is safe to call concurrently with reads and writes
// (each shard is merged under its write lock) and is idempotent. bftagd
// runs this periodically; benchmarks call it before measuring steady-state
// footprint.
func (db *DB) Compact() {
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		if sh.headPostings > 0 || sh.dead > 0 {
			db.compactShardLocked(sh)
		}
		sh.mu.Unlock()
	}
}

// SetCompactThreshold tunes the inline merge policy: the head must reach n
// postings (and a quarter of the run's live size) before a merge. n == 0
// restores the default; n < 0 disables automatic merging entirely, pinning
// the DB to the head-only map layout — the pre-compaction baseline used by
// the corpus benchmark and ablation tests. Explicit Compact calls still
// merge.
func (db *DB) SetCompactThreshold(n int) {
	db.compactMin.Store(int64(n))
}

// compactShardLocked rebuilds sh.run as the merge of the current run
// (minus tombstones) and every head posting. Head postings already carry
// interned refs, so the merge never touches the ref table. Caller holds
// sh.mu for writing.
//
// The merge preserves every live (hash, seg, seq) triple exactly and keeps
// groups seq-ascending, so verdict and oldest-holder semantics are
// byte-identical before and after — the golden-equivalence property the
// compaction tests pin.
func (db *DB) compactShardLocked(sh *hashShard) {
	old := &sh.run
	headKeys := make([]uint32, 0, len(sh.head))
	for h := range sh.head {
		headKeys = append(headKeys, h)
	}
	sort.Slice(headKeys, func(i, j int) bool { return headKeys[i] < headKeys[j] })

	livePostings := len(old.segs) - sh.dead + sh.headPostings
	nw := run{
		hashes: make([]uint32, 0, len(old.hashes)+len(headKeys)),
		starts: make([]uint32, 1, len(old.hashes)+len(headKeys)+1),
		segs:   make([]uint32, 0, livePostings),
		seqs:   make([]uint64, 0, livePostings),
	}
	var (
		big map[uint32]map[uint32]struct{}
		one [1]headPosting
	)
	emit := func(ref uint32, seq uint64) {
		nw.segs = append(nw.segs, ref)
		nw.seqs = append(nw.seqs, seq)
	}
	emitGroup := func(h uint32, g int, hp []headPosting) {
		before := len(nw.segs)
		old.mergeGroup(g, hp, emit)
		n := len(nw.segs) - before
		if n == 0 {
			return // fully tombstoned group: drop the hash
		}
		nw.hashes = append(nw.hashes, h)
		nw.starts = append(nw.starts, uint32(len(nw.segs)))
		if n >= bigGroupMin {
			set := make(map[uint32]struct{}, n)
			for i := before; i < len(nw.segs); i++ {
				set[nw.segs[i]] = struct{}{}
			}
			if big == nil {
				big = make(map[uint32]map[uint32]struct{})
			}
			big[h] = set
		}
	}

	gi, hi := 0, 0
	for gi < len(old.hashes) || hi < len(headKeys) {
		switch {
		case hi >= len(headKeys) || (gi < len(old.hashes) && old.hashes[gi] < headKeys[hi]):
			emitGroup(old.hashes[gi], gi, nil)
			gi++
		case gi >= len(old.hashes) || headKeys[hi] < old.hashes[gi]:
			emitGroup(headKeys[hi], -1, sh.headView(headKeys[hi], &one))
			hi++
		default:
			emitGroup(old.hashes[gi], gi, sh.headView(headKeys[hi], &one))
			gi++
			hi++
		}
	}

	nw.buildSkip(db.shardBitsOf())
	sh.run = nw
	sh.big = big
	sh.resetHead()
	db.headN.Add(int64(-sh.headPostings))
	db.deadN.Add(int64(-sh.dead))
	sh.headPostings = 0
	sh.dead = 0
}

// mergeGroup calls fn for every live posting of run group g (-1 for none)
// and every head posting of hp, in ascending seq order. On equal seqs run
// entries come first, matching the order an uncompacted head would hold.
func (r *run) mergeGroup(g int, hp []headPosting, fn func(ref uint32, seq uint64)) {
	var s, e int
	if g >= 0 {
		s, e = r.bounds(g)
	}
	bi := 0
	for i := s; i < e || bi < len(hp); {
		if i < e && r.segs[i] == tombstoneRef {
			i++
			continue
		}
		if i < e && (bi >= len(hp) || r.seqs[i] <= hp[bi].seq()) {
			fn(r.segs[i], r.seqs[i])
			i++
		} else {
			fn(hp[bi].ref, hp[bi].seq())
			bi++
		}
	}
}

// appendMergedLocked appends h's live postings in seq order (run group and
// head postings merged) to out. Caller holds sh.mu at least for reading.
func (db *DB) appendMergedLocked(sh *hashShard, h uint32, view *idsView, out []Posting) []Posting {
	var one [1]headPosting
	sh.run.mergeGroup(sh.run.find(h, db.shardBitsOf()), sh.headView(h, &one), func(ref uint32, seq uint64) {
		out = append(out, Posting{Seg: view.id(ref), Seq: seq})
	})
	return out
}

// oldestRefLocked resolves the authoritative (oldest live) holder of h,
// comparing the head's oldest posting with the run group's first live
// entry, and returns its ref and first-seen seq. Caller holds sh.mu at
// least for reading.
func (db *DB) oldestRefLocked(sh *hashShard, h uint32) (ref uint32, seq uint64, ok bool) {
	var one [1]headPosting
	hp := sh.headView(h, &one)
	if g := sh.run.find(h, db.shardBitsOf()); g >= 0 {
		if rref, rseq, ok := sh.run.firstLive(g); ok {
			if len(hp) == 0 || rseq <= hp[0].seq() {
				return rref, rseq, true
			}
		}
	}
	if len(hp) == 0 {
		return 0, 0, false
	}
	return hp[0].ref, hp[0].seq(), true
}

// oldestLocked is oldestRefLocked resolved to the holder's segment ID.
func (db *DB) oldestLocked(sh *hashShard, h uint32, view *idsView) (segment.ID, bool) {
	ref, _, ok := db.oldestRefLocked(sh, h)
	if !ok {
		return "", false
	}
	return view.id(ref), true
}

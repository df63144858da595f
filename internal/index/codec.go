package index

// Binary snapshot codec for one DB: the payload of the docs/pars sections
// of the BFLOWSNB checkpoint format (see internal/store). The encoding is
// columnar and delta-varint compressed:
//
//	u8      codec version (1)
//	u64     clock (little endian)
//	u64     defaultThreshold (IEEE 754 bits, little endian)
//	uvarint segment-table length
//	  per entry: uvarint byte length + ID bytes, sorted ascending by ID
//	uvarint DBpar entry count
//	  per entry (ascending by segment ref):
//	    uvarint ref, u64 threshold bits, uvarint updated,
//	    uvarint hash count, delta-uvarint ascending hashes
//	uvarint distinct hash count
//	uvarint total posting count
//	  per hash (ascending): uvarint delta from previous hash,
//	    uvarint group length,
//	    per posting (ascending seq): uvarint ref, uvarint seq delta
//
// The encoding is a pure function of the DB's logical contents — segment
// table sorted by ID, hashes ascending, postings seq-ascending — so the
// same state encodes to the same bytes regardless of shard count or merge
// history, and a replica can persist a primary's snapshot verbatim.
//
// Decoding rebuilds the compacted runs directly from the arrays (no
// per-posting map inserts), which is what makes binary recovery a linear
// varint scan instead of the JSON path's reflective parse + replay.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

const snapshotCodecVersion = 1

// CodecError reports a malformed binary index snapshot, with the byte
// offset (relative to the index payload) where decoding failed.
type CodecError struct {
	Offset int
	Reason string
}

func (e *CodecError) Error() string {
	return fmt.Sprintf("index: corrupt snapshot payload at offset %d: %s", e.Offset, e.Reason)
}

// AppendSnapshot appends the DB's binary snapshot to buf and returns the
// extended slice. The DB must be quiescent (no concurrent mutations):
// checkpoint callers hold the store's epoch barrier, which guarantees it.
func (db *DB) AppendSnapshot(buf []byte) ([]byte, error) {
	// Pass A: collect the referenced segment universe — DBpar entries and
	// the interned refs of head and run postings.
	ids := db.segtab.snapshot()
	refUsed := make([]bool, len(ids))
	universe := make(map[segment.ID]struct{})
	useRef := func(r uint32) {
		if int(r) >= len(refUsed) {
			ids = db.segtab.snapshot()
			refUsed = append(refUsed, make([]bool, len(ids)-len(refUsed))...)
		}
		refUsed[r] = true
	}

	type parRec struct {
		seg       segment.ID
		threshold float64
		updated   uint64
		hashes    []uint32 // immutable fingerprint storage
	}
	var pars []parRec
	for si := range db.segShards {
		ss := &db.segShards[si]
		ss.mu.RLock()
		for seg, entry := range ss.par {
			rec := parRec{seg: seg, threshold: entry.threshold, updated: entry.updated}
			if entry.fp != nil {
				rec.hashes = entry.fp.Hashes()
			}
			pars = append(pars, rec)
			universe[seg] = struct{}{}
		}
		ss.mu.RUnlock()
	}
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.RLock()
		for h := range sh.head {
			var one [1]headPosting
			for _, p := range sh.headView(h, &one) {
				useRef(p.ref)
			}
		}
		for _, r := range sh.run.segs {
			if r != tombstoneRef {
				useRef(r)
			}
		}
		sh.mu.RUnlock()
	}
	for r, used := range refUsed {
		if used {
			universe[ids[r]] = struct{}{}
		}
	}

	table := make([]segment.ID, 0, len(universe))
	for seg := range universe {
		table = append(table, seg)
	}
	sort.Slice(table, func(i, j int) bool { return table[i] < table[j] })
	newRef := make(map[segment.ID]uint32, len(table))
	for i, seg := range table {
		newRef[seg] = uint32(i)
	}

	// Header.
	buf = append(buf, snapshotCodecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, db.clock.Load())
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(db.defaultThreshold))
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, seg := range table {
		buf = binary.AppendUvarint(buf, uint64(len(seg)))
		buf = append(buf, seg...)
	}

	// DBpar entries, ascending by (new) ref.
	sort.Slice(pars, func(i, j int) bool { return pars[i].seg < pars[j].seg })
	buf = binary.AppendUvarint(buf, uint64(len(pars)))
	for _, rec := range pars {
		buf = binary.AppendUvarint(buf, uint64(newRef[rec.seg]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.threshold))
		buf = binary.AppendUvarint(buf, rec.updated)
		buf = binary.AppendUvarint(buf, uint64(len(rec.hashes)))
		prev := uint32(0)
		for i, h := range rec.hashes {
			if i == 0 {
				buf = binary.AppendUvarint(buf, uint64(h))
			} else {
				buf = binary.AppendUvarint(buf, uint64(h-prev))
			}
			prev = h
		}
	}

	// Postings, globally ascending by hash: shard index is the hash's top
	// bits, so visiting shards in order yields global hash order; within a
	// shard, merge the sorted head keys with the run groups.
	countAt := len(buf)
	buf = binary.AppendUvarint(buf, uint64(db.distinct.Load()))
	buf = binary.AppendUvarint(buf, uint64(db.postings.Load()))
	var (
		distinct, total int
		prevHash        uint32
		first           = true
		scratch         []Posting
		view            = idsView{tab: &db.segtab}
		encodeErr       error
	)
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.RLock()
		headKeys := make([]uint32, 0, len(sh.head))
		for h := range sh.head {
			headKeys = append(headKeys, h)
		}
		sort.Slice(headKeys, func(i, j int) bool { return headKeys[i] < headKeys[j] })
		gi, hi := 0, 0
		for gi < len(sh.run.hashes) || hi < len(headKeys) {
			var h uint32
			switch {
			case hi >= len(headKeys) || (gi < len(sh.run.hashes) && sh.run.hashes[gi] < headKeys[hi]):
				h = sh.run.hashes[gi]
				gi++
			case gi >= len(sh.run.hashes) || headKeys[hi] < sh.run.hashes[gi]:
				h = headKeys[hi]
				hi++
			default:
				h = sh.run.hashes[gi]
				gi++
				hi++
			}
			scratch = db.appendMergedLocked(sh, h, &view, scratch[:0])
			if len(scratch) == 0 {
				continue // fully tombstoned group
			}
			if first {
				buf = binary.AppendUvarint(buf, uint64(h))
				first = false
			} else {
				buf = binary.AppendUvarint(buf, uint64(h-prevHash))
			}
			prevHash = h
			buf = binary.AppendUvarint(buf, uint64(len(scratch)))
			prevSeq := uint64(0)
			for i, p := range scratch {
				ref, ok := newRef[p.Seg]
				if !ok {
					encodeErr = fmt.Errorf("index: snapshot encode raced a mutation: unknown segment %q", p.Seg)
					break
				}
				buf = binary.AppendUvarint(buf, uint64(ref))
				if i == 0 {
					buf = binary.AppendUvarint(buf, p.Seq)
				} else {
					buf = binary.AppendUvarint(buf, p.Seq-prevSeq)
				}
				prevSeq = p.Seq
			}
			distinct++
			total += len(scratch)
			if encodeErr != nil {
				break
			}
		}
		sh.mu.RUnlock()
		if encodeErr != nil {
			return nil, encodeErr
		}
	}
	if distinct != int(db.distinct.Load()) || total != int(db.postings.Load()) {
		// Re-encode the counts in place (counters can drift from the walk
		// only if the caller violated quiescence; still, emit the truth).
		var fixed []byte
		fixed = binary.AppendUvarint(fixed, uint64(distinct))
		fixed = binary.AppendUvarint(fixed, uint64(total))
		var orig []byte
		orig = binary.AppendUvarint(orig, uint64(db.distinct.Load()))
		orig = binary.AppendUvarint(orig, uint64(db.postings.Load()))
		if len(fixed) == len(orig) {
			copy(buf[countAt:], fixed)
		} else {
			rest := append([]byte(nil), buf[countAt+len(orig):]...)
			buf = append(buf[:countAt], fixed...)
			buf = append(buf, rest...)
		}
	}
	return buf, nil
}

// snapDecoder is a bounds-checked varint reader over the snapshot payload.
type snapDecoder struct {
	data []byte
	off  int
}

func (d *snapDecoder) fail(reason string) error {
	return &CodecError{Offset: d.off, Reason: reason}
}

func (d *snapDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.fail("truncated or overlong varint: " + what)
	}
	d.off += n
	return v, nil
}

func (d *snapDecoder) u64(what string) (uint64, error) {
	if d.off+8 > len(d.data) {
		return 0, d.fail("truncated u64: " + what)
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v, nil
}

// snapParRec is one decoded DBpar entry awaiting commit.
type snapParRec struct {
	ref       uint32
	threshold float64
	updated   uint64
	hashes    []uint32
}

// PreparedSnapshot is a fully decoded and validated snapshot, sharded for
// the DB that prepared it and ready to commit. It lets a caller restoring
// several DBs validate every payload before committing any of them, so a
// corrupt second payload cannot leave the first DB already replaced.
type PreparedSnapshot struct {
	db      *DB
	clock   uint64
	thrBits uint64
	table   []segment.ID
	pars    []snapParRec
	runs    []run
	total   uint64
}

// LoadSnapshot replaces the DB's contents with the decoded snapshot,
// building the compacted runs directly from the posting arrays. It must
// not run concurrently with other operations on the same DB. The payload
// is fully validated before the DB is touched, so on error the DB is left
// unchanged — never partially loaded.
func (db *DB) LoadSnapshot(data []byte) error {
	p, err := db.PrepareSnapshot(data)
	if err != nil {
		return err
	}
	db.CommitSnapshot(p)
	return nil
}

// PrepareSnapshot decodes and validates a snapshot payload against this
// DB's shard layout without touching its state. The result must be passed
// to CommitSnapshot on the same DB (and is invalidated by it). Nothing in
// the prepared state aliases data, which may be a memory mapping.
func (db *DB) PrepareSnapshot(data []byte) (*PreparedSnapshot, error) {
	p := &PreparedSnapshot{db: db}
	if err := db.decodeSnapshot(data, p); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeSnapshot does PrepareSnapshot's decoding work, filling p.
func (db *DB) decodeSnapshot(data []byte, p *PreparedSnapshot) error {
	d := &snapDecoder{data: data}
	if len(data) < 1 {
		return d.fail("empty payload")
	}
	if data[0] != snapshotCodecVersion {
		return &CodecError{Offset: 0, Reason: fmt.Sprintf("unsupported codec version %d", data[0])}
	}
	d.off = 1
	clock, err := d.u64("clock")
	if err != nil {
		return err
	}
	thrBits, err := d.u64("default threshold")
	if err != nil {
		return err
	}

	nSegs, err := d.uvarint("segment table length")
	if err != nil {
		return err
	}
	if nSegs > uint64(len(data)) { // each entry needs ≥1 byte
		return d.fail("segment table length exceeds payload")
	}
	table := make([]segment.ID, nSegs)
	for i := range table {
		n, err := d.uvarint("segment ID length")
		if err != nil {
			return err
		}
		if n > uint64(len(data)-d.off) {
			return d.fail("segment ID exceeds payload")
		}
		table[i] = segment.ID(data[d.off : d.off+int(n)])
		d.off += int(n)
		if i > 0 && table[i] <= table[i-1] {
			return d.fail("segment table not strictly ascending")
		}
	}

	nPar, err := d.uvarint("DBpar entry count")
	if err != nil {
		return err
	}
	if nPar > nSegs {
		return d.fail("more DBpar entries than table segments")
	}
	pars := make([]snapParRec, nPar)
	for i := range pars {
		ref, err := d.uvarint("DBpar segment ref")
		if err != nil {
			return err
		}
		if ref >= nSegs {
			return d.fail("DBpar segment ref out of range")
		}
		if i > 0 && uint32(ref) <= pars[i-1].ref {
			return d.fail("DBpar entries not ascending by ref")
		}
		tb, err := d.u64("DBpar threshold")
		if err != nil {
			return err
		}
		updated, err := d.uvarint("DBpar updated")
		if err != nil {
			return err
		}
		if updated > clock {
			return d.fail("DBpar updated exceeds clock")
		}
		nh, err := d.uvarint("DBpar hash count")
		if err != nil {
			return err
		}
		if nh > uint64(len(data)-d.off) {
			return d.fail("DBpar hash count exceeds payload")
		}
		hashes := make([]uint32, nh)
		prev := uint64(0)
		for j := range hashes {
			dv, err := d.uvarint("DBpar hash delta")
			if err != nil {
				return err
			}
			var h uint64
			if j == 0 {
				h = dv
			} else {
				if dv == 0 {
					return d.fail("DBpar hashes not strictly ascending")
				}
				h = prev + dv
			}
			if h > math.MaxUint32 {
				return d.fail("DBpar hash overflows 32 bits")
			}
			hashes[j] = uint32(h)
			prev = h
		}
		pars[i] = snapParRec{ref: uint32(ref), threshold: math.Float64frombits(tb), updated: updated, hashes: hashes}
	}

	distinct, err := d.uvarint("distinct hash count")
	if err != nil {
		return err
	}
	total, err := d.uvarint("total posting count")
	if err != nil {
		return err
	}
	if distinct > uint64(len(data)) || total > uint64(len(data)) {
		return d.fail("posting counts exceed payload")
	}

	// Decode postings straight into per-shard run arrays. A fresh DB is
	// built shard by shard and only swapped in at the end, so a decode
	// error can never leave a partial load behind.
	shards := len(db.hashShards)
	runs := make([]run, shards)
	perShard := int(total)/shards + 1
	prevHash := uint64(0)
	seenHashes := uint64(0)
	seenPostings := uint64(0)
	for seenHashes < distinct {
		dv, err := d.uvarint("posting hash delta")
		if err != nil {
			return err
		}
		var h uint64
		if seenHashes == 0 {
			h = dv
		} else {
			if dv == 0 {
				return d.fail("posting hashes not strictly ascending")
			}
			h = prevHash + dv
		}
		if h > math.MaxUint32 {
			return d.fail("posting hash overflows 32 bits")
		}
		prevHash = h
		seenHashes++
		groupLen, err := d.uvarint("posting group length")
		if err != nil {
			return err
		}
		if groupLen == 0 {
			return d.fail("empty posting group")
		}
		if seenPostings+groupLen > total {
			return d.fail("posting groups exceed declared total")
		}
		r := &runs[db.hashShardIdx(uint32(h))]
		if r.starts == nil {
			r.hashes = make([]uint32, 0, int(distinct)/shards+1)
			r.starts = append(make([]uint32, 0, int(distinct)/shards+2), 0)
			r.segs = make([]uint32, 0, perShard)
			r.seqs = make([]uint64, 0, perShard)
		}
		r.hashes = append(r.hashes, uint32(h))
		prevSeq := uint64(0)
		for j := uint64(0); j < groupLen; j++ {
			ref, err := d.uvarint("posting segment ref")
			if err != nil {
				return err
			}
			if ref >= nSegs {
				return d.fail("posting segment ref out of range")
			}
			sd, err := d.uvarint("posting seq delta")
			if err != nil {
				return err
			}
			var seq uint64
			if j == 0 {
				seq = sd
			} else {
				seq = prevSeq + sd
			}
			if seq > clock {
				return d.fail("posting seq exceeds clock")
			}
			prevSeq = seq
			r.segs = append(r.segs, uint32(ref))
			r.seqs = append(r.seqs, seq)
		}
		r.starts = append(r.starts, uint32(len(r.segs)))
		seenPostings += groupLen
	}
	if seenPostings != total {
		return d.fail("posting total mismatch")
	}
	if d.off != len(data) {
		return d.fail("trailing bytes after snapshot payload")
	}

	p.clock = clock
	p.thrBits = thrBits
	p.table = table
	p.pars = pars
	p.runs = runs
	p.total = total
	return nil
}

// CommitSnapshot swaps a prepared snapshot's state into the DB that
// prepared it, replacing all previous contents. It must not run
// concurrently with other operations on the same DB, and p must not be
// reused afterwards (the DB takes ownership of its arrays).
func (db *DB) CommitSnapshot(p *PreparedSnapshot) {
	if p.db != db {
		panic("index: CommitSnapshot on a DB other than the one that prepared it")
	}
	db.reset()
	db.defaultThreshold = math.Float64frombits(p.thrBits)
	db.clock.Store(p.clock)
	db.segtab.mu.Lock()
	db.segtab.ids = p.table
	db.segtab.refs = make(map[segment.ID]uint32, len(p.table))
	for i, seg := range p.table {
		db.segtab.refs[seg] = uint32(i)
	}
	db.segtab.mu.Unlock()
	var distinct int64
	for si := range db.hashShards {
		sh := &db.hashShards[si]
		sh.mu.Lock()
		sh.run = p.runs[si]
		sh.run.buildSkip(db.shardBitsOf())
		distinct += int64(len(sh.run.hashes))
		for g := range sh.run.hashes {
			s, e := sh.run.bounds(g)
			if e-s >= bigGroupMin {
				set := make(map[uint32]struct{}, e-s)
				for i := s; i < e; i++ {
					set[sh.run.segs[i]] = struct{}{}
				}
				if sh.big == nil {
					sh.big = make(map[uint32]map[uint32]struct{})
				}
				sh.big[sh.run.hashes[g]] = set
			}
		}
		sh.mu.Unlock()
	}
	var parHashes int64
	for _, rec := range p.pars {
		seg := p.table[rec.ref]
		ss := db.segShardFor(seg)
		ss.mu.Lock()
		ss.par[seg] = &parEntry{
			fp:        fingerprint.FromSortedHashes(rec.hashes),
			threshold: rec.threshold,
			updated:   rec.updated,
		}
		ss.mu.Unlock()
		parHashes += int64(len(rec.hashes))
	}
	db.segments.Store(int64(len(p.pars)))
	db.distinct.Store(distinct)
	db.postings.Store(int64(p.total))
	db.parHashes.Store(parHashes)
	db.RecomputeDigests()
}

// EncodeExportBinary encodes an ExportData snapshot into the binary codec,
// producing the same bytes the live DB path (AppendSnapshot) would for the
// same logical state. It is the compatibility path for struct-level
// snapshot saves; speed-critical callers encode from the live DB instead.
func EncodeExportBinary(data ExportData) ([]byte, error) {
	db := New(data.DefaultThreshold)
	if err := db.Import(data); err != nil {
		return nil, err
	}
	return db.AppendSnapshot(nil)
}

// DecodeExportBinary decodes a binary index payload into ExportData — the
// compatibility path for struct-level snapshot loads.
func DecodeExportBinary(payload []byte) (ExportData, error) {
	db := New(0)
	if err := db.LoadSnapshot(payload); err != nil {
		return ExportData{}, err
	}
	return db.Export(), nil
}

package fingerprint

import (
	"github.com/lsds/browserflow/internal/normalize"
	"github.com/lsds/browserflow/internal/rollhash"
)

// Scratch holds every intermediate buffer of the fingerprinting pipeline —
// the normalised text and its origin offsets, the n-gram hash sequence,
// the winnowing ring and the selected-hash staging area — so repeated
// fingerprint computations reuse one fixed working set instead of
// reallocating it per call. This is what makes the per-keystroke observe
// loop allocation-free at steady state: once the buffers have grown to the
// size of the largest text seen, ComputeShared and AppendHashes perform no
// heap allocations at all.
//
// A Scratch is not safe for concurrent use; pool instances per goroutine
// (the disclosure tracker recycles one per observation via a sync.Pool).
// The zero value is ready to use.
type Scratch struct {
	norm     []byte
	offsets  []int32
	hashes   []uint32
	ring     []int
	selected []int
	raw      []uint32
	fp       Fingerprint
}

// run runs S1–S4 over text into the scratch buffers, leaving the n-gram
// hashes in sc.hashes and the winnowed indices into them in sc.selected.
// With positions it also records sc.offsets, the origin of each normalised
// byte.
func (sc *Scratch) run(text string, cfg Config, positions bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if positions {
		sc.norm, sc.offsets = normalize.AppendWithOffsets(sc.norm[:0], sc.offsets[:0], text)
	} else {
		sc.norm = normalize.AppendText(sc.norm[:0], text)
	}
	// The only AppendNGrams error is a non-positive n, which Validate
	// has already rejected.
	sc.hashes, _ = rollhash.AppendNGrams(sc.hashes[:0], sc.norm, cfg.NGram)
	n := ringLen(cfg.Window)
	if cap(sc.ring) < n {
		sc.ring = make([]int, n)
	}
	sc.selected = winnowInto(sc.selected[:0], sc.hashes, cfg.Window, sc.ring[:n])
	return nil
}

// AppendHashes appends the winnowed fingerprint hashes of text — distinct,
// ascending — to dst and returns the extended slice. It is equivalent to
// appending Compute(text, cfg).Hashes() but draws every intermediate buffer
// from the scratch and computes no positions. dst must not alias any of
// sc's internal buffers (pass a caller-owned slice or nil).
func (sc *Scratch) AppendHashes(dst []uint32, text string, cfg Config) ([]uint32, error) {
	if err := sc.run(text, cfg, false); err != nil {
		return dst, err
	}
	base := len(dst)
	for _, idx := range sc.selected {
		dst = append(dst, sc.hashes[idx])
	}
	// Sort and deduplicate the appended tail in place; the prefix of dst is
	// untouched.
	tail := sortedDistinct(dst[base:])
	return dst[:base+len(tail)], nil
}

// ComputeShared fingerprints text like Compute but returns a fingerprint
// that ALIASES the scratch: it is valid only until the next call on sc and
// MUST NOT be retained — callers that decide to keep it detach it first
// with Clone. Positions are not computed (Positions and PositionsOf return
// nothing), so the result serves hash-set consumers only: the observe hot
// path, digests, set operations.
//
// At steady state the call performs zero heap allocations; that property
// is pinned by TestComputeSharedZeroAlloc.
func (sc *Scratch) ComputeShared(text string, cfg Config) (*Fingerprint, error) {
	raw, err := sc.AppendHashes(sc.raw[:0], text, cfg)
	if err != nil {
		return nil, err
	}
	sc.raw = raw
	sc.fp = Fingerprint{}
	if len(raw) > 0 {
		sc.fp.sorted = raw
	}
	return &sc.fp, nil
}

// Compute is the scratch-backed form of the package-level Compute,
// including positions: the result is fully owned by the caller (safe to
// retain), and only the owned output — the fingerprint, its positions and
// its hash set — allocates; all intermediate buffers come from the scratch.
func (sc *Scratch) Compute(text string, cfg Config) (*Fingerprint, error) {
	if err := sc.run(text, cfg, true); err != nil {
		return nil, err
	}
	fp := &Fingerprint{}
	if len(sc.selected) == 0 {
		return fp, nil
	}
	fp.positions = make([]Position, len(sc.selected))
	raw := make([]uint32, len(sc.selected))
	for k, idx := range sc.selected {
		h := sc.hashes[idx]
		start, end := normalize.OrigRange(text, sc.offsets, idx, idx+cfg.NGram)
		fp.positions[k] = Position{Hash: h, Start: start, End: end}
		raw[k] = h
	}
	fp.sorted = sortedDistinct(raw)
	return fp, nil
}

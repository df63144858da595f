package fingerprint

import (
	"math/rand"
	"slices"
	"testing"
	"unicode"
	"unicode/utf8"

	"github.com/lsds/browserflow/internal/rollhash"
)

// fuzzConfigs covers the paper's configuration, small n-grams, and windows
// on both sides of the power-of-two sizes of the winnowing ring.
var fuzzConfigs = []Config{
	DefaultConfig(),
	{NGram: 3, Window: 4},
	{NGram: 1, Window: 1},
	{NGram: 2, Window: 3},
	{NGram: 4, Window: 31},
	{NGram: 5, Window: 32},
}

// refFingerprint is the reference S1–S4 pipeline, written for clarity
// rather than speed: per-rune unicode normalisation, rollhash.Sum over
// every n-gram, and the naive O(n·w) winnow. The optimised kernel must
// match it hash for hash and position for position.
func refFingerprint(text string, cfg Config) ([]uint32, []Position) {
	var norm []byte
	var offsets []int
	for i, r := range text {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			continue
		}
		for _, b := range utf8.AppendRune(nil, unicode.ToLower(r)) {
			norm = append(norm, b)
			offsets = append(offsets, i)
		}
	}
	var ngrams []uint32
	for i := 0; i+cfg.NGram <= len(norm); i++ {
		ngrams = append(ngrams, rollhash.Sum(norm[i:i+cfg.NGram]))
	}
	var hashes []uint32
	var positions []Position
	for _, idx := range winnowNaive(ngrams, cfg.Window) {
		last := offsets[idx+cfg.NGram-1]
		_, size := utf8.DecodeRuneInString(text[last:])
		positions = append(positions, Position{Hash: ngrams[idx], Start: offsets[idx], End: last + size})
		hashes = append(hashes, ngrams[idx])
	}
	slices.Sort(hashes)
	return slices.Compact(hashes), positions
}

// checkAgainstReference compares every fingerprinting entry point with
// refFingerprint for one text and configuration; sc is reused across calls
// so stale scratch state would show up as a mismatch.
func checkAgainstReference(t *testing.T, sc *Scratch, text string, cfg Config) {
	t.Helper()
	wantHashes, wantPositions := refFingerprint(text, cfg)
	fp, err := Compute(text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fp.Hashes(), wantHashes) || !slices.Equal(fp.Positions(), wantPositions) {
		t.Fatalf("Compute(%q, %+v) = %#x %v, want %#x %v",
			text, cfg, fp.Hashes(), fp.Positions(), wantHashes, wantPositions)
	}
	owned, err := sc.Compute(text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(owned.Hashes(), wantHashes) || !slices.Equal(owned.Positions(), wantPositions) {
		t.Fatalf("Scratch.Compute(%q, %+v) diverges from the reference", text, cfg)
	}
	shared, err := sc.ComputeShared(text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(shared.Hashes(), wantHashes) {
		t.Fatalf("ComputeShared(%q, %+v) = %#x, want %#x", text, cfg, shared.Hashes(), wantHashes)
	}
}

// FuzzFingerprint differentially tests the kernel against the reference
// pipeline on arbitrary (untrusted page) text, including invalid UTF-8.
func FuzzFingerprint(f *testing.F) {
	for _, v := range goldenVectors {
		f.Add(v.text)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(randText(rng, 20+rng.Intn(300)))
	}
	var sc Scratch
	f.Fuzz(func(t *testing.T, text string) {
		for _, cfg := range fuzzConfigs {
			checkAgainstReference(t, &sc, text, cfg)
		}
	})
}

// randBytes builds a text of arbitrary bytes: every ASCII byte, bytes of
// multi-byte runes, and bytes that are invalid UTF-8 on their own.
func randBytes(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// TestComputeMatchesReference runs the differential check over random
// mixed-script texts and random bytes of every length up to a few windows,
// so the property holds in the ordinary test run and not only under
// fuzzing.
func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc Scratch
	for i := 0; i < 300; i++ {
		for _, text := range []string{randText(rng, rng.Intn(200)), randBytes(rng, rng.Intn(200))} {
			for _, cfg := range fuzzConfigs {
				checkAgainstReference(t, &sc, text, cfg)
			}
		}
	}
}

// Package normalize implements step S1 of BrowserFlow's fingerprinting
// pipeline (§4.1): text segments are normalised by removing punctuation and
// whitespace and by folding character case, so that cosmetic edits do not
// perturb fingerprints. "Hello World!" becomes "helloworld".
//
// The package also keeps a byte-offset map back into the original text so
// that fingerprint hashes can be attributed to the exact source passage that
// caused an information disclosure (§4.1: "Provided that the location of the
// corresponding source text for each hash in the fingerprint is also stored,
// it becomes possible to attribute accurately which text segment passages
// caused information disclosure").
package normalize

import (
	"unicode"
	"unicode/utf8"
)

// Result is a normalised text together with a mapping from each normalised
// byte back to the byte offset of the originating rune in the source text.
type Result struct {
	// Orig is the original input string.
	Orig string

	// Text is the normalised text: lower-case letters and digits only.
	Text string

	// Offsets has one entry per byte of Text; Offsets[i] is the byte offset
	// in the original string of the rune that produced Text[i]. int32
	// keeps the map compact on the fingerprinting hot path; segments are
	// paragraphs and pages, far below 2 GiB.
	Offsets []int32
}

// fold maps each ASCII byte to its normalised form: a–z and 0–9 to
// themselves, A–Z to lower case, and every other byte to 0 (dropped). It
// agrees with unicode.IsLetter, unicode.IsDigit and unicode.ToLower on all
// of ASCII, so the table lookup is the per-byte fast path and only runes at
// or above utf8.RuneSelf take the unicode path.
var fold = func() (t [utf8.RuneSelf]byte) {
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c
	}
	for c := byte('a'); c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = c, c
	}
	return t
}()

// Normalize lower-cases s and drops every rune that is not a letter or a
// digit, recording the origin of each surviving byte.
func Normalize(s string) Result {
	buf, offsets := AppendWithOffsets(make([]byte, 0, len(s)), make([]int32, 0, len(s)), s)
	return Result{Orig: s, Text: string(buf), Offsets: offsets}
}

// AppendText appends the normalised form of s (lower-case letters and
// digits only) to buf and returns the extended slice, without recording
// origin offsets. It is the capacity-reusing path for callers that need
// hashes but not attribution: with sufficient capacity in buf the call
// performs no allocations.
func AppendText(buf []byte, s string) []byte {
	buf, _ = appendNormalized(buf, nil, s, false)
	return buf
}

// AppendWithOffsets is AppendText that also appends, for every byte it
// appends to buf, the byte offset in s of the originating rune to offsets
// — the capacity-reusing form of Normalize.
func AppendWithOffsets(buf []byte, offsets []int32, s string) ([]byte, []int32) {
	return appendNormalized(buf, offsets, s, true)
}

// appendNormalized is the one S1 loop behind AppendText and
// AppendWithOffsets. Invalid UTF-8 decodes to utf8.RuneError one byte at a
// time, exactly as ranging over the string does, and is dropped.
func appendNormalized(buf []byte, offsets []int32, s string, record bool) ([]byte, []int32) {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if f := fold[c]; f != 0 {
				buf = append(buf, f)
				if record {
					offsets = append(offsets, int32(i))
				}
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			n := len(buf)
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
			for ; record && n < len(buf); n++ {
				offsets = append(offsets, int32(i))
			}
		}
		i += size
	}
	return buf, offsets
}

// OrigRange maps a half-open byte range [start, end) of the normalised text
// to the corresponding half-open byte range in the original text, covering
// every originating rune. It returns (0, 0) for an empty or out-of-bounds
// range.
func (r Result) OrigRange(start, end int) (int, int) {
	return OrigRange(r.Orig, r.Offsets, start, end)
}

// OrigRange is Result.OrigRange over an offsets map recorded by
// AppendWithOffsets from orig.
func OrigRange(orig string, offsets []int32, start, end int) (int, int) {
	if start < 0 || end > len(offsets) || start >= end {
		return 0, 0
	}
	last := int(offsets[end-1])
	_, size := utf8.DecodeRuneInString(orig[last:])
	if size == 0 {
		size = 1
	}
	return int(offsets[start]), last + size
}

// Equivalent reports whether two strings normalise to the same text, i.e.
// they differ only in case, whitespace and punctuation.
func Equivalent(a, b string) bool {
	return Normalize(a).Text == Normalize(b).Text
}

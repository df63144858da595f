package normalize

import (
	"testing"
	"unicode"
)

// FuzzNormalize checks the core invariants for arbitrary input: no panics,
// idempotence, offsets in range and monotone.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"",
		"Hello World!",
		"MySQL 5.1",
		"père Noël",
		"机密文件",
		"\xff\xfe invalid utf8 \x80",
		"á combining",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		norm, offsets := withOffsets(input)
		if len(offsets) != len(norm) {
			t.Fatalf("offsets/text length mismatch: %d vs %d", len(offsets), len(norm))
		}
		if plain := text(input); plain != norm {
			t.Fatalf("AppendText %q != AppendWithOffsets %q", plain, norm)
		}
		prev := int32(-1)
		for i, off := range offsets {
			if int(off) >= len(input) || off < 0 {
				t.Fatalf("offset %d out of range at %d", off, i)
			}
			if off < prev {
				t.Fatalf("offsets not monotone at %d", i)
			}
			prev = off
		}
		// Idempotence.
		if twice := text(norm); twice != norm {
			t.Errorf("not idempotent: %q -> %q", norm, twice)
		}
		// Output alphabet: letters and digits only.
		for _, c := range norm {
			if !unicode.IsLetter(c) && !unicode.IsDigit(c) {
				t.Fatalf("non-letter %q survived", c)
			}
		}
	})
}

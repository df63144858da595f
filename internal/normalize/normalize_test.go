package normalize

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

// text normalises s through AppendText.
func text(s string) string { return string(AppendText(nil, s)) }

// withOffsets normalises s through AppendWithOffsets.
func withOffsets(s string) (string, []int32) {
	buf, offsets := AppendWithOffsets(nil, nil, s)
	return string(buf), offsets
}

func TestNormalizePaperExample(t *testing.T) {
	if got := text("Hello World!"); got != "helloworld" {
		t.Errorf("Text=%q, want %q", got, "helloworld")
	}
}

func TestNormalizeTable(t *testing.T) {
	tests := []struct {
		name string
		give string
		want string
	}{
		{name: "empty", give: "", want: ""},
		{name: "only punctuation", give: "!?.,;: \t\n", want: ""},
		{name: "digits kept", give: "MySQL 5.1!", want: "mysql51"},
		{name: "case folded", give: "ABCdef", want: "abcdef"},
		{name: "unicode letters kept", give: "Città è bella", want: "cittàèbella"},
		{name: "newlines stripped", give: "a\nb\r\nc", want: "abc"},
		{name: "interior spaces", give: "the  quick   fox", want: "thequickfox"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := text(tt.give); got != tt.want {
				t.Errorf("AppendText(%q)=%q, want %q", tt.give, got, tt.want)
			}
			if got, offsets := withOffsets(tt.give); got != tt.want || len(offsets) != len(got) {
				t.Errorf("AppendWithOffsets(%q)=%q with %d offsets, want %q", tt.give, got, len(offsets), tt.want)
			}
		})
	}
}

func TestOffsetsPointAtOriginRunes(t *testing.T) {
	orig := "He said: «Bonjour, Monde»!"
	norm, offsets := withOffsets(orig)
	if len(offsets) != len(norm) {
		t.Fatalf("len(Offsets)=%d, want %d", len(offsets), len(norm))
	}
	// Every offset must point at a letter or digit in the original.
	for i, off := range offsets {
		c := []rune(orig[off:])[0]
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) {
			t.Errorf("Offsets[%d]=%d points at %q, not a letter/digit", i, off, c)
		}
	}
	// Offsets must be non-decreasing.
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			t.Errorf("Offsets not monotone at %d: %d < %d", i, offsets[i], offsets[i-1])
		}
	}
}

func TestOrigRange(t *testing.T) {
	orig := "Hello, World!"
	_, offsets := withOffsets(orig) // "helloworld"
	start, end := OrigRange(orig, offsets, 5, 10)
	if got := orig[start:end]; got != "World" {
		t.Errorf("OrigRange(5,10) -> %q, want %q", got, "World")
	}
	start, end = OrigRange(orig, offsets, 0, 5)
	if got := orig[start:end]; got != "Hello" {
		t.Errorf("OrigRange(0,5) -> %q, want %q", got, "Hello")
	}
}

func TestOrigRangeMultibyte(t *testing.T) {
	orig := "père Noël"
	norm, offsets := withOffsets(orig) // "pèrenoël"
	start, end := OrigRange(orig, offsets, 0, len(norm))
	if start != 0 {
		t.Errorf("start=%d, want 0", start)
	}
	if got := orig[start:end]; !strings.HasSuffix(got, "Noël") {
		t.Errorf("OrigRange full -> %q, want suffix %q", got, "Noël")
	}
}

func TestOrigRangeInvalid(t *testing.T) {
	_, offsets := withOffsets("abc")
	for _, tt := range []struct{ start, end int }{
		{-1, 2}, {0, 4}, {2, 2}, {3, 1},
	} {
		if s, e := OrigRange("abc", offsets, tt.start, tt.end); s != 0 || e != 0 {
			t.Errorf("OrigRange(%d,%d)=(%d,%d), want (0,0)", tt.start, tt.end, s, e)
		}
	}
}

// TestEquivalent: strings that differ only in case, whitespace and
// punctuation normalise to the same text.
func TestEquivalent(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"Hello World!", "helloworld", true},
		{"the quick fox", "THE QUICK FOX.", true},
		{"abc", "abd", false},
		{"", "  ...  ", true},
	}
	for _, tt := range tests {
		if got := text(tt.a) == text(tt.b); got != tt.want {
			t.Errorf("Equivalent(%q,%q)=%v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// The ASCII fold table must agree with the unicode path on every byte
// below utf8.RuneSelf, offsets included.
func TestASCIIFoldMatchesUnicode(t *testing.T) {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		want := ""
		if unicode.IsLetter(c) || unicode.IsDigit(c) {
			want = string(unicode.ToLower(c))
		}
		text, offsets := AppendWithOffsets(nil, nil, "."+string(c))
		if string(text) != want {
			t.Errorf("byte %#x normalises to %q, want %q", c, text, want)
		}
		if len(offsets) != len(want) || (len(offsets) == 1 && offsets[0] != 1) {
			t.Errorf("byte %#x: offsets %v, want [1] per kept byte", c, offsets)
		}
	}
}

// Property: normalisation is idempotent — normalising the normalised text is
// a no-op.
func TestQuickIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := text(s)
		twice := text(once)
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: case and whitespace perturbations never change the normalised
// text.
func TestQuickCaseWhitespaceInvariant(t *testing.T) {
	f := func(s string) bool {
		perturbed := strings.ToUpper(strings.ReplaceAll(s, "a", " a "))
		base := strings.ToUpper(s)
		return text(perturbed) == text(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNormalize(b *testing.B) {
	s := strings.Repeat("The Quick Brown Fox, jumps over the lazy dog! ", 100)
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	buf, offsets := AppendWithOffsets(nil, nil, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, offsets = AppendWithOffsets(buf[:0], offsets[:0], s)
	}
}

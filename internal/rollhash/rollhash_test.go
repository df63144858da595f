package rollhash

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// ngrams is AppendNGrams onto a nil slice, failing the test on error.
func ngrams(t *testing.T, data []byte, n int) []uint32 {
	t.Helper()
	hashes, err := AppendNGrams(nil, data, n)
	if err != nil {
		t.Fatalf("AppendNGrams(n=%d): %v", n, err)
	}
	return hashes
}

func TestRollMatchesSum(t *testing.T) {
	tests := []struct {
		name string
		data string
		n    int
	}{
		{name: "exact window", data: "hellow", n: 6},
		{name: "longer input", data: "helloworld", n: 6},
		{name: "window one", data: "abc", n: 1},
		{name: "binary bytes", data: "\x00\xff\x10\x20\x30", n: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data := []byte(tt.data)
			got := ngrams(t, data, tt.n)
			if want := len(data) - tt.n + 1; len(got) != want {
				t.Fatalf("%d hashes, want %d", len(got), want)
			}
			for i, h := range got {
				if want := Sum(data[i : i+tt.n]); h != want {
					t.Errorf("window %d: hash=%#x, want %#x", i, h, want)
				}
			}
		})
	}
}

// A window is only hashed once it is full: n-1 bytes emit nothing, n bytes
// emit exactly one hash.
func TestRollIncompleteWindow(t *testing.T) {
	data := []byte("aaaaaaaaaa")
	if got := ngrams(t, data[:9], 10); len(got) != 0 {
		t.Fatalf("9 bytes, window 10: got %v, want none", got)
	}
	if got := ngrams(t, data, 10); len(got) != 1 || got[0] != Sum(data) {
		t.Fatalf("10 bytes, window 10: got %v, want [%#x]", got, Sum(data))
	}
}

// AppendNGrams keeps no state between calls: appending to a non-empty dst
// leaves the prefix untouched and appends exactly what a fresh call
// returns, and reusing dst's capacity does not reallocate.
func TestAppendNGramsPreservesPrefix(t *testing.T) {
	data := []byte("abcdef")
	fresh := ngrams(t, data, 3)
	buf := append(make([]uint32, 0, 16), 7, 8)
	got, err := AppendNGrams(buf, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("AppendNGrams reallocated despite sufficient capacity")
	}
	if !slices.Equal(got[:2], []uint32{7, 8}) || !slices.Equal(got[2:], fresh) {
		t.Errorf("got %v, want [7 8] + %v", got, fresh)
	}
	if again := ngrams(t, data, 3); !slices.Equal(again, fresh) {
		t.Errorf("second call %v differs from first %v", again, fresh)
	}
}

func TestNGrams(t *testing.T) {
	hashes := ngrams(t, []byte("helloworld"), 6)
	want := []uint32{
		Sum([]byte("hellow")),
		Sum([]byte("ellowo")),
		Sum([]byte("llowor")),
		Sum([]byte("loworl")),
		Sum([]byte("oworld")),
	}
	if !slices.Equal(hashes, want) {
		t.Errorf("hashes=%#x, want %#x", hashes, want)
	}
}

func TestNGramsShortInput(t *testing.T) {
	dst := []uint32{1}
	got, err := AppendNGrams(dst, []byte("hi"), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, dst) {
		t.Errorf("AppendNGrams on short input: got %v, want %v", got, dst)
	}
}

func TestNGramsBadWindow(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		dst := []uint32{1}
		got, err := AppendNGrams(dst, []byte("hi"), n)
		if err != ErrWindowSize {
			t.Errorf("AppendNGrams(n=%d): err=%v, want ErrWindowSize", n, err)
		}
		if !slices.Equal(got, dst) {
			t.Errorf("AppendNGrams(n=%d) changed dst: %v", n, got)
		}
	}
}

// Property: the rolling hash of any window equals the direct polynomial sum
// of that window, for random inputs and window sizes.
func TestQuickRollEquivalence(t *testing.T) {
	f := func(data []byte, nRaw uint8) bool {
		n := int(nRaw)%16 + 1
		got, err := AppendNGrams(nil, data, n)
		if err != nil {
			return false
		}
		if len(data) < n {
			return len(got) == 0
		}
		if len(got) != len(data)-n+1 {
			return false
		}
		for i := range got {
			if got[i] != Sum(data[i:i+n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: equal windows hash equally regardless of surrounding context
// (shift invariance), the key property winnowing relies on.
func TestQuickShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 8
	window := make([]byte, n)
	for trial := 0; trial < 200; trial++ {
		rng.Read(window)
		prefix := make([]byte, rng.Intn(32))
		rng.Read(prefix)
		data := append(append([]byte{}, prefix...), window...)
		hashes := ngrams(t, data, n)
		if got, want := hashes[len(hashes)-1], Sum(window); got != want {
			t.Fatalf("trial %d: embedded window hash %#x, want %#x", trial, got, want)
		}
	}
}

func BenchmarkAppendNGrams(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	dst := make([]uint32, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = AppendNGrams(dst[:0], data, 15)
	}
}

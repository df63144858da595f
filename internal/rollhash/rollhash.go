// Package rollhash implements a 32-bit Karp–Rabin rolling hash over
// fixed-length byte windows.
//
// It is the hash function used in step S2 of BrowserFlow's fingerprinting
// pipeline (§4.1 of the paper): every n-gram of the normalised text is hashed
// with an efficient rolling hash so that fingerprinting a text segment costs
// O(len) regardless of the n-gram length.
package rollhash

import (
	"errors"
	"slices"
)

// Base is the multiplier of the polynomial hash. It is a prime chosen so that
// consecutive window hashes distribute well across the 32-bit space.
const Base uint32 = 16777619

// ErrWindowSize reports an invalid (non-positive) window length.
var ErrWindowSize = errors.New("rollhash: window length must be positive")

// Sum returns the polynomial hash of data: data[0]·Base^(len-1) + … +
// data[len-1], mod 2^32. It is the hash of one window and the test oracle
// for AppendNGrams: the hash AppendNGrams emits for data[i:i+n] equals
// Sum(data[i:i+n]).
func Sum(data []byte) uint32 {
	var hash uint32
	for _, b := range data {
		hash = hash*Base + uint32(b)
	}
	return hash
}

// AppendNGrams appends the hash of every n-byte window of data to dst, in
// order, and returns the extended slice. Inputs shorter than one window
// append nothing. Each step rolls the window forward by one byte in O(1),
// reading the outgoing byte straight from data; with sufficient capacity in
// dst the call performs no allocations.
func AppendNGrams(dst []uint32, data []byte, n int) ([]uint32, error) {
	if n <= 0 {
		return dst, ErrWindowSize
	}
	if len(data) < n {
		return dst, nil
	}
	pow := uint32(1) // Base^(n-1), the weight of the outgoing byte
	for range n - 1 {
		pow *= Base
	}
	base, m := len(dst), len(data)-n+1
	dst = slices.Grow(dst, m)[:base+m]
	out := dst[base:]
	hash := Sum(data[:n])
	out[0] = hash
	for i, b := range data[n:] {
		hash = (hash-uint32(data[i])*pow)*Base + uint32(b)
		out[i+1] = hash
	}
	return dst, nil
}

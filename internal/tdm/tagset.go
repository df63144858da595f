// Package tdm implements BrowserFlow's Text Disclosure Model (§3): a
// decentralised label model in which cloud services carry a privilege label
// Lp and a confidentiality label Lc, text segments carry labels of tags
// (explicit and implicit), users may suppress tags (audited
// declassification) and allocate custom tags, and a segment with label Li
// may be released to a service iff Li ⊆ Lp once suppressed tags are ignored.
package tdm

import (
	"sort"
	"strings"
)

// Tag is a unique, human-readable string expressing a separate concern
// about data disclosure (e.g. "interview-data" or
// "product-announcement-x").
type Tag string

// TagSet is an immutable-by-convention set of tags; methods that modify
// return the receiver for chaining but callers exchanging sets across API
// boundaries use Clone.
type TagSet map[Tag]struct{}

// NewTagSet returns a TagSet holding the given tags.
func NewTagSet(tags ...Tag) TagSet {
	s := make(TagSet, len(tags))
	for _, t := range tags {
		s[t] = struct{}{}
	}
	return s
}

// Add inserts t.
func (s TagSet) Add(t Tag) TagSet {
	s[t] = struct{}{}
	return s
}

// Remove deletes t.
func (s TagSet) Remove(t Tag) TagSet {
	delete(s, t)
	return s
}

// Has reports membership.
func (s TagSet) Has(t Tag) bool {
	_, ok := s[t]
	return ok
}

// Len returns the cardinality.
func (s TagSet) Len() int { return len(s) }

// Clone returns an independent copy.
func (s TagSet) Clone() TagSet {
	out := make(TagSet, len(s))
	for t := range s {
		out[t] = struct{}{}
	}
	return out
}

// Union returns a new set with all tags from s and o.
func (s TagSet) Union(o TagSet) TagSet {
	out := s.Clone()
	for t := range o {
		out[t] = struct{}{}
	}
	return out
}

// Minus returns a new set with the tags of s not in o.
func (s TagSet) Minus(o TagSet) TagSet {
	out := make(TagSet)
	for t := range s {
		if !o.Has(t) {
			out[t] = struct{}{}
		}
	}
	return out
}

// SubsetOf reports whether every tag of s is in o — the Li ⊆ Lp check of
// §3.1.
func (s TagSet) SubsetOf(o TagSet) bool {
	for t := range s {
		if !o.Has(t) {
			return false
		}
	}
	return true
}

// equal reports whether s and o hold the same tags.
func (s TagSet) equal(o TagSet) bool {
	return len(s) == len(o) && s.SubsetOf(o)
}

// Sorted returns the tags in lexical order.
func (s TagSet) Sorted() []Tag {
	out := make([]Tag, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as "{a, b, c}".
func (s TagSet) String() string {
	tags := s.Sorted()
	parts := make([]string, len(tags))
	for i, t := range tags {
		parts[i] = string(t)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

package tdm

// Label is a text segment label (§3.1–3.2). It splits into:
//
//   - explicit tags: assigned by default from the confidentiality label Lc
//     of the service where the segment was first observed, plus custom tags
//     added by users;
//   - implicit tags: tags copied from source segments when the segment was
//     found to disclose their information. Implicit tags mark the segment
//     as *not* the authoritative source and do not propagate further;
//   - suppressed tags: tags a user has declassified for this segment. They
//     are ignored in subset comparisons but remain attached for audit.
//
// A set is nil until it holds a tag, so a label costs no map for a set it
// does not use. A default-assigned explicit set is its service's Lc,
// shared until the label's first explicit-tag mutation copies it.
type Label struct {
	explicit   TagSet
	implicit   TagSet
	suppressed TagSet

	// eff caches Effective() as a bitset over the owning registry's
	// interner (the compiled check-table fast path). Registry mutators
	// recompute it eagerly under the registry write lock; every Label
	// mutator invalidates it so a label touched outside the registry can
	// never serve a stale verdict — CheckRelease falls back to the
	// semilattice when effValid is false.
	eff      Bits
	effValid bool

	// explicitShared marks explicit as borrowed from a service's Lc.
	explicitShared bool
}

// NewLabel returns a Label with the given explicit tags.
func NewLabel(explicit ...Tag) *Label {
	return &Label{explicit: tagSetOf(explicit)}
}

// shareExplicit makes the immutable set lc the label's explicit tags
// without copying it.
func (l *Label) shareExplicit(lc TagSet) {
	if len(lc) > 0 {
		l.explicit, l.explicitShared = lc, true
	}
}

// ownExplicit gives the label a private, non-nil explicit set before a
// mutation.
func (l *Label) ownExplicit() {
	if l.explicit == nil || l.explicitShared {
		l.explicit, l.explicitShared = l.explicit.Clone(), false
	}
}

// Explicit returns a copy of the explicit tags.
func (l *Label) Explicit() TagSet { return l.explicit.Clone() }

// Implicit returns a copy of the implicit tags.
func (l *Label) Implicit() TagSet { return l.implicit.Clone() }

// Suppressed returns a copy of the suppressed tags.
func (l *Label) Suppressed() TagSet { return l.suppressed.Clone() }

// AddExplicit adds a tag as explicit (default assignment or user custom
// tag).
func (l *Label) AddExplicit(t Tag) {
	l.ownExplicit()
	l.explicit.Add(t)
	l.effValid = false
}

// RemoveExplicit removes an explicit tag.
func (l *Label) RemoveExplicit(t Tag) {
	if l.explicit.Has(t) {
		l.ownExplicit()
		l.explicit.Remove(t)
	}
	l.effValid = false
}

// SetImplicit replaces the implicit tag set. BrowserFlow recomputes the
// implicit tags of the segment being edited from its *current* disclosure
// sources (§3.2), which is how outdated tags stop propagating (Figure 6).
func (l *Label) SetImplicit(tags TagSet) { l.implicit = cloneNonEmpty(tags); l.effValid = false }

// Suppress marks t as suppressed. It reports whether t was present in the
// label (explicit or implicit); suppressing an absent tag is a no-op
// returning false.
func (l *Label) Suppress(t Tag) bool {
	if !l.explicit.Has(t) && !l.implicit.Has(t) {
		return false
	}
	if l.suppressed == nil {
		l.suppressed = make(TagSet, 1)
	}
	l.suppressed.Add(t)
	l.effValid = false
	return true
}

// Unsuppress clears a suppression, restoring the tag's effect.
func (l *Label) Unsuppress(t Tag) { l.suppressed.Remove(t); l.effValid = false }

// Effective returns the tags that participate in subset comparisons:
// (explicit ∪ implicit) minus suppressed.
func (l *Label) Effective() TagSet {
	return l.explicit.Union(l.implicit).Minus(l.suppressed)
}

// All returns every tag attached to the label, including suppressed ones —
// what an auditor sees.
func (l *Label) All() TagSet {
	return l.explicit.Union(l.implicit).Union(l.suppressed)
}

// Clone returns an independent deep copy.
func (l *Label) Clone() *Label {
	return &Label{
		explicit:   cloneNonEmpty(l.explicit),
		implicit:   cloneNonEmpty(l.implicit),
		suppressed: cloneNonEmpty(l.suppressed),
	}
}

// tagSetOf returns the set of tags, or nil when there are none.
func tagSetOf(tags []Tag) TagSet {
	if len(tags) == 0 {
		return nil
	}
	return NewTagSet(tags...)
}

// cloneNonEmpty copies s, or returns nil for an empty set.
func cloneNonEmpty(s TagSet) TagSet {
	if len(s) == 0 {
		return nil
	}
	return s.Clone()
}

// ReleasableTo reports whether the label permits release to a service with
// privilege label lp, and if not, which tags violate.
func (l *Label) ReleasableTo(lp TagSet) (ok bool, violating []Tag) {
	eff := l.Effective()
	if eff.SubsetOf(lp) {
		return true, nil
	}
	for _, t := range eff.Minus(lp).Sorted() {
		violating = append(violating, t)
	}
	return false, violating
}

// String renders the label as "explicit ∪ implicit (suppressed: ...)".
func (l *Label) String() string {
	s := l.explicit.String()
	if l.implicit.Len() > 0 {
		s += "+" + l.implicit.String()
	}
	if l.suppressed.Len() > 0 {
		s += " (suppressed " + l.suppressed.String() + ")"
	}
	return s
}

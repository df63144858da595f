package tdm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lsds/browserflow/internal/segment"
)

// Property-based invariants of the Text Disclosure Model, in the spirit of
// the DIFC lattice properties the paper's label model inherits (§3.1).

// randomTags draws a small tag universe so collisions are frequent.
func randomTags(rng *rand.Rand, max int) []Tag {
	n := rng.Intn(max + 1)
	out := make([]Tag, n)
	for i := range out {
		out[i] = Tag(string(rune('a' + rng.Intn(6))))
	}
	return out
}

// Invariant: growing a privilege label never revokes releasability.
func TestQuickReleaseMonotoneInPrivilege(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		label := NewLabel(randomTags(rng, 4)...)
		label.SetImplicit(NewTagSet(randomTags(rng, 3)...))
		lp := NewTagSet(randomTags(rng, 4)...)
		okBefore, _ := label.ReleasableTo(lp)
		// Grow Lp by one tag.
		grown := lp.Clone().Add(Tag(string(rune('a' + rng.Intn(6)))))
		okAfter, _ := label.ReleasableTo(grown)
		return !okBefore || okAfter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Invariant: suppression only ever widens releasability.
func TestQuickSuppressionWidens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		label := NewLabel(randomTags(rng, 4)...)
		label.SetImplicit(NewTagSet(randomTags(rng, 3)...))
		lp := NewTagSet(randomTags(rng, 3)...)
		okBefore, _ := label.ReleasableTo(lp)
		for _, tag := range label.All().Sorted() {
			label.Suppress(tag)
			okAfter, _ := label.ReleasableTo(lp)
			if okBefore && !okAfter {
				return false
			}
			okBefore = okAfter
		}
		// Fully suppressed labels are releasable anywhere.
		okFinal, _ := label.ReleasableTo(NewTagSet())
		return okFinal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Invariant: adding an explicit (custom) tag only ever narrows
// releasability.
func TestQuickCustomTagNarrows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		label := NewLabel(randomTags(rng, 3)...)
		lp := NewTagSet(randomTags(rng, 4)...)
		okBefore, _ := label.ReleasableTo(lp)
		label.AddExplicit("zz-custom")
		okAfter, _ := label.ReleasableTo(lp)
		// Narrowing: anything blocked stays blocked; newly added tag can
		// only block further.
		return okBefore || !okAfter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Invariant: Effective is always a subset of All, and suppression removes
// from Effective without removing from All.
func TestQuickEffectiveSubsetOfAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		label := NewLabel(randomTags(rng, 4)...)
		label.SetImplicit(NewTagSet(randomTags(rng, 4)...))
		for _, tag := range randomTags(rng, 3) {
			label.Suppress(tag)
		}
		if !label.Effective().SubsetOf(label.All()) {
			return false
		}
		for _, s := range label.Suppressed().Sorted() {
			if label.Effective().Has(s) {
				return false
			}
			if !label.All().Has(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Invariant: RefreshImplicit is idempotent for a fixed source set.
func TestQuickRefreshImplicitIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry(nil)
		if err := r.RegisterService("s", NewTagSet(randomTags(rng, 3)...), NewTagSet(randomTags(rng, 3)...)); err != nil {
			return false
		}
		if err := r.Observe("s/a#p0", "s"); err != nil {
			return false
		}
		if err := r.Observe("s/b#p0", "s"); err != nil {
			return false
		}
		sources := []segment.ID{"s/a#p0"}
		r.RefreshImplicit("s/b#p0", sources)
		first := r.Label("s/b#p0").Implicit().String()
		r.RefreshImplicit("s/b#p0", sources)
		second := r.Label("s/b#p0").Implicit().String()
		return first == second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

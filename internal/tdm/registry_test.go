package tdm

import (
	"errors"
	"testing"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/segment"
)

// paperRegistry builds the service configuration of Figure 3: Interview
// Tool with {ti}/{ti}, Wiki with {tw}/{tw}, Google Docs with {}/{}.
func paperRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry(nil)
	mustRegister(t, r, "itool", NewTagSet("ti"), NewTagSet("ti"))
	mustRegister(t, r, "wiki", NewTagSet("tw"), NewTagSet("tw"))
	mustRegister(t, r, "docs", NewTagSet(), NewTagSet())
	return r
}

func mustRegister(t *testing.T, r *Registry, name string, lp, lc TagSet) {
	t.Helper()
	if err := r.RegisterService(name, lp, lc); err != nil {
		t.Fatalf("RegisterService(%s): %v", name, err)
	}
}

func TestRegisterServiceDuplicate(t *testing.T) {
	r := paperRegistry(t)
	err := r.RegisterService("wiki", NewTagSet(), NewTagSet())
	if !errors.Is(err, ErrServiceExists) {
		t.Errorf("err=%v, want ErrServiceExists", err)
	}
}

func TestServiceLookup(t *testing.T) {
	r := paperRegistry(t)
	svc, err := r.Service("itool")
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Privilege.Has("ti") || !svc.Confidentiality.Has("ti") {
		t.Errorf("itool labels wrong: %+v", svc)
	}
	if _, err := r.Service("ghost"); !errors.Is(err, ErrServiceUnknown) {
		t.Errorf("err=%v, want ErrServiceUnknown", err)
	}
	// Returned copies do not alias registry state.
	svc.Privilege.Add("evil")
	svc2, _ := r.Service("itool")
	if svc2.Privilege.Has("evil") {
		t.Error("Service() exposed internal state")
	}
}

func TestServicesSorted(t *testing.T) {
	r := paperRegistry(t)
	svcs := r.Services()
	if len(svcs) != 3 {
		t.Fatalf("len=%d, want 3", len(svcs))
	}
	want := []string{"docs", "itool", "wiki"}
	for i, w := range want {
		if svcs[i].Name != w {
			t.Errorf("svcs[%d]=%q, want %q", i, svcs[i].Name, w)
		}
	}
}

// Figure 3 step 1–2: text created in the Interview Tool gets {ti}; it may
// not flow to the Wiki because {ti} ⊄ {tw}.
func TestFigure3DefaultAssignmentAndBlock(t *testing.T) {
	r := paperRegistry(t)
	seg := segment.ID("itool/eval#p0")
	if err := r.Observe(seg, "itool"); err != nil {
		t.Fatal(err)
	}
	if label := r.Label(seg); !label.Explicit().Has("ti") {
		t.Errorf("default assignment failed: %v", label)
	}
	ok, violating, err := r.CheckRelease(seg, "wiki")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("interview data released to wiki")
	}
	if len(violating) != 1 || violating[0] != "ti" {
		t.Errorf("violating=%v, want [ti]", violating)
	}
}

// Figure 3 step 3: Google Docs text is public (Lc={}) and flows to the Wiki.
func TestFigure3PublicDataFlows(t *testing.T) {
	r := paperRegistry(t)
	seg := segment.ID("docs/shared#p0")
	if err := r.Observe(seg, "docs"); err != nil {
		t.Fatal(err)
	}
	ok, violating, err := r.CheckRelease(seg, "wiki")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("public data blocked: violating=%v", violating)
	}
}

// Figure 4: suppressing ti permits the upload and leaves an audit trail.
func TestFigure4Suppression(t *testing.T) {
	log := audit.NewLog()
	r := NewRegistry(log)
	mustRegister(t, r, "itool", NewTagSet("ti"), NewTagSet("ti"))
	mustRegister(t, r, "wiki", NewTagSet("tw"), NewTagSet("tw"))

	seg := segment.ID("itool/eval#p0")
	if err := r.Observe(seg, "itool"); err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := r.CheckRelease(seg, "wiki"); ok {
		t.Fatal("release should be blocked before suppression")
	}
	if err := r.SuppressTag("alice", seg, "ti", "sharing summary with team"); err != nil {
		t.Fatal(err)
	}
	if ok, violating, _ := r.CheckRelease(seg, "wiki"); !ok {
		t.Errorf("release still blocked after suppression: %v", violating)
	}
	// The suppressed tag remains attached.
	if !r.Label(seg).All().Has("ti") {
		t.Error("suppressed tag lost from label")
	}
	entries := log.ByUser("alice")
	if len(entries) != 1 || entries[0].Action != audit.ActionSuppress ||
		entries[0].Tag != "ti" || entries[0].Justification == "" {
		t.Errorf("audit entries=%+v", entries)
	}
}

func TestSuppressErrors(t *testing.T) {
	r := paperRegistry(t)
	if err := r.SuppressTag("alice", "unknown#p0", "ti", "x"); !errors.Is(err, ErrTagNotOnSegment) {
		t.Errorf("unknown segment: err=%v", err)
	}
	seg := segment.ID("wiki/a#p0")
	if err := r.Observe(seg, "wiki"); err != nil {
		t.Fatal(err)
	}
	if err := r.SuppressTag("alice", seg, "ti", "x"); !errors.Is(err, ErrTagNotOnSegment) {
		t.Errorf("absent tag: err=%v", err)
	}
}

// Figure 5: custom tag tn restricts propagation even when the service
// privilege labels would otherwise allow it.
func TestFigure5CustomTags(t *testing.T) {
	r := NewRegistry(nil)
	// Administrator permits wiki data in the Interview Tool.
	mustRegister(t, r, "itool", NewTagSet("ti", "tw"), NewTagSet("ti"))
	mustRegister(t, r, "wiki", NewTagSet("tw"), NewTagSet("tw"))

	seg := segment.ID("wiki/secret#p0")
	if err := r.Observe(seg, "wiki"); err != nil {
		t.Fatal(err)
	}
	// Without tn, wiki text may flow to itool.
	if ok, _, _ := r.CheckRelease(seg, "itool"); !ok {
		t.Fatal("precondition: wiki -> itool should be allowed")
	}
	// Step 1: user allocates tn and adds it to the segment.
	if err := r.AllocateTag("alice", "tn"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTagToSegment("alice", seg, "tn"); err != nil {
		t.Fatal(err)
	}
	// Step 2: the Wiki already stores the segment, so its Lp gains tn
	// automatically and the segment can still live there.
	wiki, _ := r.Service("wiki")
	if !wiki.Privilege.Has("tn") {
		t.Error("wiki Lp not auto-updated with tn")
	}
	if ok, _, _ := r.CheckRelease(seg, "wiki"); !ok {
		t.Error("segment blocked from its own storing service")
	}
	// Step 3: itool does not have tn, so the flow is now blocked.
	if ok, violating, _ := r.CheckRelease(seg, "itool"); ok {
		t.Error("custom tag failed to block itool")
	} else if len(violating) != 1 || violating[0] != "tn" {
		t.Errorf("violating=%v, want [tn]", violating)
	}
	// Owner can grant itool the tag explicitly.
	if err := r.GrantTag("alice", "itool", "tn"); err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := r.CheckRelease(seg, "itool"); !ok {
		t.Error("grant did not unblock itool")
	}
	// And revoke it again.
	if err := r.RevokeTag("alice", "itool", "tn"); err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := r.CheckRelease(seg, "itool"); ok {
		t.Error("revoke did not re-block itool")
	}
}

func TestCustomTagOwnership(t *testing.T) {
	r := paperRegistry(t)
	if err := r.AllocateTag("alice", "tn"); err != nil {
		t.Fatal(err)
	}
	if err := r.AllocateTag("bob", "tn"); !errors.Is(err, ErrTagExists) {
		t.Errorf("duplicate allocate: err=%v", err)
	}
	if owner, ok := r.TagOwner("tn"); !ok || owner != "alice" {
		t.Errorf("TagOwner=%q,%v", owner, ok)
	}
	if err := r.GrantTag("bob", "wiki", "tn"); !errors.Is(err, ErrNotTagOwner) {
		t.Errorf("non-owner grant: err=%v", err)
	}
	if err := r.GrantTag("alice", "ghost", "tn"); !errors.Is(err, ErrServiceUnknown) {
		t.Errorf("unknown service: err=%v", err)
	}
	if err := r.GrantTag("alice", "wiki", "unallocated"); !errors.Is(err, ErrTagUnknown) {
		t.Errorf("unknown tag: err=%v", err)
	}
	seg := segment.ID("wiki/x#p0")
	if err := r.Observe(seg, "wiki"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTagToSegment("bob", seg, "tn"); !errors.Is(err, ErrNotTagOwner) {
		t.Errorf("non-owner AddTagToSegment: err=%v", err)
	}
}

// Figure 6: implicit tags prevent propagation of outdated tags. B disclosed
// from A and carries ti implicitly; text copied from B to C only inherits
// B's *explicit* tw.
func TestFigure6ImplicitTagsDoNotPropagate(t *testing.T) {
	r := NewRegistry(nil)
	mustRegister(t, r, "itool", NewTagSet("ti", "tw"), NewTagSet("ti"))
	mustRegister(t, r, "wiki", NewTagSet("tw", "ti"), NewTagSet("tw"))
	mustRegister(t, r, "docs", NewTagSet("tw"), NewTagSet())

	segA := segment.ID("itool/A#p0")
	segB := segment.ID("wiki/B#p0")
	segC := segment.ID("docs/C#p0")
	if err := r.Observe(segA, "itool"); err != nil {
		t.Fatal(err)
	}
	if err := r.Observe(segB, "wiki"); err != nil {
		t.Fatal(err)
	}

	// Step 1: B is found to disclose from A -> B gains implicit ti.
	r.RefreshImplicit(segB, []segment.ID{segA})
	labelB := r.Label(segB)
	if !labelB.Implicit().Has("ti") || !labelB.Explicit().Has("tw") {
		t.Fatalf("labelB=%v, want explicit {tw} implicit {ti}", labelB)
	}
	// While B discloses A's text it may not flow to docs (Lp={tw}).
	if ok, _, _ := r.CheckRelease(segB, "docs"); ok {
		t.Error("B with implicit ti released to docs")
	}

	// Step 3: C discloses from B only. Implicit tags of B must not
	// propagate: C gets implicit {tw}, not {ti, tw}.
	if err := r.Observe(segC, "docs"); err != nil {
		t.Fatal(err)
	}
	r.RefreshImplicit(segC, []segment.ID{segB})
	labelC := r.Label(segC)
	if labelC.Implicit().Has("ti") {
		t.Error("outdated ti propagated to C — Figure 6 false positive")
	}
	if !labelC.Implicit().Has("tw") {
		t.Error("C should carry implicit tw from B")
	}
	// C is therefore releasable to docs (Lp={tw}).
	if ok, violating, _ := r.CheckRelease(segC, "docs"); !ok {
		t.Errorf("C blocked from docs: %v", violating)
	}
}

func TestRefreshImplicitReplacesOldSources(t *testing.T) {
	r := paperRegistry(t)
	segA := segment.ID("itool/A#p0")
	segB := segment.ID("wiki/B#p0")
	if err := r.Observe(segA, "itool"); err != nil {
		t.Fatal(err)
	}
	if err := r.Observe(segB, "wiki"); err != nil {
		t.Fatal(err)
	}
	r.RefreshImplicit(segB, []segment.ID{segA})
	if !r.Label(segB).Implicit().Has("ti") {
		t.Fatal("implicit ti missing")
	}
	// B edited away from A: disclosure sources now empty.
	r.RefreshImplicit(segB, nil)
	if r.Label(segB).Implicit().Has("ti") {
		t.Error("stale implicit tag survived refresh with no sources")
	}
}

func TestRefreshImplicitExcludesOwnExplicit(t *testing.T) {
	r := paperRegistry(t)
	segA := segment.ID("wiki/A#p0")
	segB := segment.ID("wiki/B#p0")
	if err := r.Observe(segA, "wiki"); err != nil {
		t.Fatal(err)
	}
	if err := r.Observe(segB, "wiki"); err != nil {
		t.Fatal(err)
	}
	r.RefreshImplicit(segB, []segment.ID{segA})
	// tw is already explicit on B; it must not be duplicated as implicit.
	if r.Label(segB).Implicit().Has("tw") {
		t.Error("own explicit tag duplicated as implicit")
	}
}

func TestCheckReleaseUnknownSegment(t *testing.T) {
	r := paperRegistry(t)
	ok, violating, err := r.CheckRelease("never-seen#p0", "docs")
	if err != nil || !ok || violating != nil {
		t.Errorf("unknown segment: ok=%v violating=%v err=%v", ok, violating, err)
	}
	if _, _, err := r.CheckRelease("x", "ghost"); !errors.Is(err, ErrServiceUnknown) {
		t.Errorf("unknown service: err=%v", err)
	}
}

func TestObserveSegmentKeepsExistingLabel(t *testing.T) {
	r := paperRegistry(t)
	seg := segment.ID("itool/eval#p0")
	if err := r.Observe(seg, "itool"); err != nil {
		t.Fatal(err)
	}
	// Re-observing in another service records storage but keeps the label.
	if err := r.Observe(seg, "wiki"); err != nil {
		t.Fatal(err)
	}
	if label := r.Label(seg); !label.Explicit().Has("ti") || label.Explicit().Has("tw") {
		t.Errorf("label changed on re-observe: %v", label)
	}
	stored := r.StoredBy(seg)
	if len(stored) != 2 || stored[0] != "itool" || stored[1] != "wiki" {
		t.Errorf("StoredBy=%v", stored)
	}
}

func TestObserveSegmentUnknownService(t *testing.T) {
	r := paperRegistry(t)
	if err := r.Observe("x#p0", "ghost"); !errors.Is(err, ErrServiceUnknown) {
		t.Errorf("err=%v, want ErrServiceUnknown", err)
	}
}

func TestAuditTrailForTagLifecycle(t *testing.T) {
	log := audit.NewLog()
	r := NewRegistry(log)
	mustRegister(t, r, "wiki", NewTagSet("tw"), NewTagSet("tw"))
	if err := r.AllocateTag("alice", "tn"); err != nil {
		t.Fatal(err)
	}
	if err := r.GrantTag("alice", "wiki", "tn"); err != nil {
		t.Fatal(err)
	}
	if err := r.RevokeTag("alice", "wiki", "tn"); err != nil {
		t.Fatal(err)
	}
	actions := []audit.Action{}
	for _, e := range log.Entries() {
		actions = append(actions, e.Action)
	}
	want := []audit.Action{audit.ActionAllocate, audit.ActionGrant, audit.ActionRevoke}
	if len(actions) != len(want) {
		t.Fatalf("actions=%v, want %v", actions, want)
	}
	for i := range want {
		if actions[i] != want[i] {
			t.Errorf("actions[%d]=%v, want %v", i, actions[i], want[i])
		}
	}
}

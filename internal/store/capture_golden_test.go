package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

// captureGoldenSHA256 is the sha256 of the checkpoint image the fixed
// script below produces (with SavedAt pinned), recorded from the
// map-of-buckets head layout: the image must not depend on the in-memory
// layout of the index or the registry.
const captureGoldenSHA256 = "ef2c9c856fd5579327e9ca06c5c104f3d6ade13b7cf61f84a197153d1edc19f6"

// captureGoldenDigest is the script's combined anti-entropy digest,
// recorded alongside captureGoldenSHA256.
const captureGoldenDigest uint64 = 0xc61f5e1c3814b4c6

// TestCaptureBytesGolden runs a fixed operation script through the policy
// engine — shared passages (multi-holder hashes), inline merges, edits,
// removals, expiry, custom tags, suppression and shadow labels — and pins
// the sha256 of the resulting checkpoint image.
func TestCaptureBytesGolden(t *testing.T) {
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)
	registry := tdm.NewRegistry(audit.NewLogWithClock(func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	}))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(registry.RegisterService("wiki", tdm.NewTagSet("tw"), tdm.NewTagSet("tw")))
	must(registry.RegisterService("itool", tdm.NewTagSet("ti"), tdm.NewTagSet("ti")))
	must(registry.RegisterService("docs", tdm.NewTagSet(), tdm.NewTagSet()))
	engine, err := policy.NewEngine(tracker, registry, policy.ModeEnforcing)
	must(err)
	// Small merge floors so the script runs through head, spill, merged
	// and mixed states.
	tracker.Paragraphs().SetCompactThreshold(16)
	tracker.Documents().SetCompactThreshold(16)

	gen := dataset.NewTextGen(7, 2000)
	shared := gen.Paragraph(3, 5)
	services := []string{"wiki", "itool", "docs"}
	var texts []string
	for i := 0; i < 60; i++ {
		svc := services[i%3]
		text := gen.Paragraph(2, 4)
		if i%4 == 0 {
			text += " " + shared
		}
		texts = append(texts, text)
		seg := segment.ID(fmt.Sprintf("%s/doc%d#p%d", svc, i/6, i%6))
		_, err := engine.ObserveEdit(seg, svc, text)
		must(err)
		if i%6 == 5 {
			doc := segment.ID(fmt.Sprintf("%s/doc%d", svc, i/6))
			_, err := engine.ObserveDocumentEdit(doc, svc, text+" "+texts[i-1])
			must(err)
		}
	}
	// Copies across services: implicit tags, then edits of the copies.
	for i := 0; i < 10; i++ {
		seg := segment.ID(fmt.Sprintf("docs/copy%d#p0", i))
		_, err := engine.ObserveEdit(seg, "docs", texts[i*5])
		must(err)
		_, err = engine.ObserveEdit(seg, "docs", texts[i*5]+" "+gen.Paragraph(1, 2))
		must(err)
	}
	must(registry.AllocateTag("alice", "launch"))
	must(registry.AddTagToSegment("alice", "wiki/doc0#p0", "launch"))
	must(registry.GrantTag("alice", "itool", "launch"))
	must(registry.SuppressTag("bob", "docs/copy0#p0", "tw", "public already"))
	registry.UpsertExplicit("wiki/remote#p0", []tdm.Tag{"tw", "tx"})
	engine.Override("carol", "itool/doc1#p1", "docs", "approved")

	tracker.Forget("wiki/doc3#p0", segment.GranularityParagraph)
	tracker.Forget("docs/copy4#p0", segment.GranularityParagraph)
	tracker.Paragraphs().ExpireBefore(5)
	tracker.Documents().Compact()
	_, err = engine.ObserveEdit("wiki/late#p0", "wiki", shared)
	must(err)

	// The script must leave postings both merged and in the heads, and
	// copied passages with several holders.
	st := tracker.Paragraphs().Stats()
	if st.HeadPostings == 0 || st.HeadPostings == st.Postings || st.Postings <= st.DistinctHashes {
		t.Fatalf("script did not reach a mixed head/run state with shared hashes: %+v", st)
	}

	blob, err := CaptureBytes(tracker, registry, 3)
	must(err)
	sections, err := parseBinary("golden", blob)
	must(err)
	pinned := frameBinary([]binSection{
		{secMeta, encodeBinaryMeta(SnapshotVersion, time.Unix(0, 0).UTC(), 3)},
		{secParagraphs, sections[secParagraphs]},
		{secDocuments, sections[secDocuments]},
		{secRegistry, sections[secRegistry]},
		{secAudit, sections[secAudit]},
	})
	sum := sha256.Sum256(pinned)
	if got := hex.EncodeToString(sum[:]); got != captureGoldenSHA256 {
		t.Errorf("checkpoint image sha256 = %s, want %s", got, captureGoldenSHA256)
	}
	// The anti-entropy digest replicas compare is pinned the same way.
	if got := tracker.Digest().Combined; got != captureGoldenDigest {
		t.Errorf("tracker digest = %#x, want %#x", got, captureGoldenDigest)
	}
}

package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
)

const secretText = "The confidential migration plan moves every internal workload to the new data centre by March."

func buildState(t testing.TB) (*disclosure.Tracker, *tdm.Registry) {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	registry := tdm.NewRegistry(audit.NewLog())
	if err := registry.RegisterService("wiki", tdm.NewTagSet("tw"), tdm.NewTagSet("tw")); err != nil {
		t.Fatal(err)
	}
	if err := registry.RegisterService("docs", tdm.NewTagSet(), tdm.NewTagSet()); err != nil {
		t.Fatal(err)
	}
	if err := registry.Observe("wiki/plan#p0", "wiki"); err != nil {
		t.Fatal(err)
	}
	if _, err := tracker.ObserveParagraph("wiki/plan#p0", secretText); err != nil {
		t.Fatal(err)
	}
	if _, err := tracker.ObserveDocument("wiki/plan", secretText); err != nil {
		t.Fatal(err)
	}
	if err := registry.SuppressTag("alice", "wiki/plan#p0", "tw", "board approval"); err != nil {
		t.Fatal(err)
	}
	return tracker, registry
}

func freshState(t *testing.T) (*disclosure.Tracker, *tdm.Registry) {
	t.Helper()
	tracker, err := disclosure.NewTracker(disclosure.Params{
		Fingerprint: fingerprint.Config{NGram: 6, Window: 4},
		Tpar:        0.5,
		Tdoc:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tracker, tdm.NewRegistry(audit.NewLog())
}

// verifyRestored checks the restored state behaves like the original:
// disclosure detection works and labels/audit survive.
func verifyRestored(t *testing.T, tracker *disclosure.Tracker, registry *tdm.Registry) {
	t.Helper()
	report, err := tracker.ObserveParagraph("docs/new#p0", secretText)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Disclosing() || report.Sources[0].Seg != "wiki/plan#p0" {
		t.Errorf("restored tracker missed disclosure: %+v", report)
	}
	label := registry.Label("wiki/plan#p0")
	if label == nil || !label.Explicit().Has("tw") || !label.Suppressed().Has("tw") {
		t.Errorf("restored label wrong: %v", label)
	}
	if got := registry.Audit().Len(); got != 1 {
		t.Errorf("restored audit entries=%d, want 1", got)
	}
}

func TestSnapshotRoundTripPlaintext(t *testing.T) {
	tracker, registry := buildState(t)
	path := filepath.Join(t.TempDir(), "state.json")
	if err := Save(path, Capture(tracker, registry), nil); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracker2, registry2 := freshState(t)
	if err := s.Restore(tracker2, registry2); err != nil {
		t.Fatal(err)
	}
	verifyRestored(t, tracker2, registry2)
}

func TestSnapshotRoundTripEncrypted(t *testing.T) {
	tracker, registry := buildState(t)
	key := DeriveKey("hunter2")
	path := filepath.Join(t.TempDir(), "state.enc")
	if err := Save(path, Capture(tracker, registry), key); err != nil {
		t.Fatal(err)
	}
	// Fingerprint data must not be readable on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:8]) != "BFLOWENC" {
		t.Error("encrypted file missing magic prefix")
	}
	if containsSub(raw, []byte("wiki/plan")) {
		t.Error("plaintext segment ID visible in encrypted file")
	}
	s, err := Load(path, key)
	if err != nil {
		t.Fatal(err)
	}
	tracker2, registry2 := freshState(t)
	if err := s.Restore(tracker2, registry2); err != nil {
		t.Fatal(err)
	}
	verifyRestored(t, tracker2, registry2)
}

func TestLoadWrongKey(t *testing.T) {
	tracker, registry := buildState(t)
	path := filepath.Join(t.TempDir(), "state.enc")
	if err := Save(path, Capture(tracker, registry), DeriveKey("right")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, DeriveKey("wrong")); !errors.Is(err, ErrBadKey) {
		t.Errorf("wrong key: err=%v, want ErrBadKey", err)
	}
	if _, err := Load(path, nil); !errors.Is(err, ErrBadKey) {
		t.Errorf("nil key on encrypted file: err=%v, want ErrBadKey", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope"), nil); err == nil {
		t.Error("missing file should error")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt")
	if err := os.WriteFile(path, []byte("{truncated"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, nil); err == nil {
		t.Error("corrupt file should error")
	}
}

func TestRestoreVersionCheck(t *testing.T) {
	tracker, registry := freshState(t)
	s := Snapshot{Version: 99}
	if err := s.Restore(tracker, registry); err == nil {
		t.Error("unsupported version accepted")
	}
}

func TestDeriveKeyDeterministic(t *testing.T) {
	a, b := DeriveKey("pass"), DeriveKey("pass")
	if string(a) != string(b) {
		t.Error("DeriveKey not deterministic")
	}
	if string(a) == string(DeriveKey("other")) {
		t.Error("different passphrases produced same key")
	}
	if len(a) != 32 {
		t.Errorf("key length=%d, want 32", len(a))
	}
}

func TestSaveErrors(t *testing.T) {
	tracker, registry := freshState(t)
	snapshot := Capture(tracker, registry)
	// Unwritable directory.
	if err := Save("/nonexistent-dir/state.bf", snapshot, nil); err == nil {
		t.Error("unwritable path accepted")
	}
	// Bad key length fails at seal time.
	if err := Save(filepath.Join(t.TempDir(), "s.bf"), snapshot, []byte("short")); err == nil {
		t.Error("bad key length accepted")
	}
}

func TestLoadTruncatedEncrypted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc")
	if err := os.WriteFile(path, []byte("BFLOWENC"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, DeriveKey("k")); !errors.Is(err, ErrBadKey) {
		t.Errorf("truncated ciphertext: err=%v, want ErrBadKey", err)
	}
}

func TestJanitorSweep(t *testing.T) {
	tracker, _ := buildState(t)
	// Add more observations so the earliest fall out of retention.
	for i := 0; i < 10; i++ {
		text := secretText + string(rune('a'+i))
		if _, err := tracker.ObserveParagraph(segment.ID(fmt.Sprintf("wiki/gen#p%d", i)), text); err != nil {
			t.Fatal(err)
		}
	}
	j := NewJanitor(tracker, time.Hour, 2)
	defer j.Shutdown()
	removed := j.Sweep()
	if removed == 0 {
		t.Error("sweep removed nothing despite retention window of 2")
	}
	if got, runs := j.Stats(); got != removed || runs != 1 {
		t.Errorf("Stats=(%d,%d), want (%d,1)", got, runs, removed)
	}
	// Segments updated within retention survive.
	if _, ok := tracker.Paragraphs().Fingerprint("wiki/gen#p9"); !ok {
		t.Error("recent segment expired")
	}
}

func TestJanitorBackgroundRuns(t *testing.T) {
	tracker, _ := buildState(t)
	for i := 0; i < 5; i++ {
		if _, err := tracker.ObserveParagraph(segment.ID(fmt.Sprintf("wiki/bg#p%d", i)), secretText+string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	j := NewJanitor(tracker, 5*time.Millisecond, 1)
	defer j.Shutdown()
	deadline := time.After(2 * time.Second)
	for {
		if _, runs := j.Stats(); runs > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("janitor never ran")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestJanitorShutdownIdempotent(t *testing.T) {
	tracker, _ := freshState(t)
	j := NewJanitor(tracker, time.Hour, 1)
	j.Shutdown()
	j.Shutdown()
}

func containsSub(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

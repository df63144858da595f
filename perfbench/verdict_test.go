package main

import (
	"errors"
	"testing"

	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/tdm"
)

func TestCheckVerdict(t *testing.T) {
	flagged := tagserver.VerdictResponse{
		Decision:  "block",
		Violating: []tdm.Tag{confTag},
		Sources:   []tagserver.SourceDT{{Seg: "wiki/a#p0", Disclosure: 1}},
	}
	cases := []struct {
		name  string
		e     expect
		v     tagserver.VerdictResponse
		wrong bool
	}{
		{"flag ok", expect{rule: ruleFlag, source: "wiki/a#p0"}, flagged, false},
		{"flag wrong source", expect{rule: ruleFlag, source: "wiki/b#p0"}, flagged, true},
		{"flag allowed", expect{rule: ruleFlag}, tagserver.VerdictResponse{Decision: "allow"}, true},
		{"flag wrong tag", expect{rule: ruleFlag}, tagserver.VerdictResponse{Decision: "block", Violating: []tdm.Tag{"ti"}}, true},
		{"allow ok", expect{rule: ruleAllow}, tagserver.VerdictResponse{Decision: "allow"}, false},
		{"allow blocked", expect{rule: ruleAllow}, flagged, true},
		{"no claim", expect{}, flagged, false},
	}
	for _, c := range cases {
		if got := checkVerdict(c.e, c.v) != ""; got != c.wrong {
			t.Errorf("%s: flagged as wrong = %v, want %v", c.name, got, c.wrong)
		}
	}
}

// A fabricated wrong verdict among good ones must be counted as a verdict
// error and in the failed share.
func TestCheckAllCountsFabricatedVerdict(t *testing.T) {
	ops := []op{
		{kind: opCheck, expect: expect{rule: ruleAllow}},
		{kind: opCheck, expect: expect{rule: ruleFlag, source: "wiki/a#p0"}},
		{kind: opObserve, expect: expect{rule: ruleAllow}},
		{kind: opUpload, expect: expect{rule: ruleAllow}},
	}
	res := []opResult{
		{done: true, verdict: tagserver.VerdictResponse{Decision: "allow"}},
		// Fabricated: the right tag, but the source is not named.
		{done: true, verdict: tagserver.VerdictResponse{Decision: "block", Violating: []tdm.Tag{confTag}}},
		{done: true, err: &statusErr{code: 429}},
		{err: errors.New("connection refused")},
	}
	tl := checkAll(ops, res)
	if tl.verdictErrors != 1 || tl.non200 != 1 || tl.transport != 1 {
		t.Fatalf("tally = %+v, want 1 verdict error, 1 non-200, 1 transport", tl)
	}
	if tl.failedFrac() != 0.75 {
		t.Fatalf("failed share = %v, want 0.75", tl.failedFrac())
	}
}

package main

import (
	"fmt"

	"github.com/lsds/browserflow/internal/tagserver"
)

// checkVerdict compares one verdict with the generator's ground truth and
// returns a description of the mismatch, or "" when it holds:
//   - ruleFlag: the verdict is not allow, lists confTag as violating and,
//     when the rule names a source, lists that segment among its sources;
//   - ruleAllow: the verdict is allow.
func checkVerdict(e expect, v tagserver.VerdictResponse) string {
	switch e.rule {
	case ruleAllow:
		if v.Decision != "allow" {
			return fmt.Sprintf("want allow, got %s %v", v.Decision, v.Violating)
		}
	case ruleFlag:
		if v.Decision == "allow" {
			return "want flagged, got allow"
		}
		tagged := false
		for _, t := range v.Violating {
			if string(t) == confTag {
				tagged = true
			}
		}
		if !tagged {
			return fmt.Sprintf("want tag %s among violating, got %v", confTag, v.Violating)
		}
		if e.source != "" {
			named := false
			for _, s := range v.Sources {
				if s.Seg == e.source {
					named = true
				}
			}
			if !named {
				return fmt.Sprintf("want source %s, got %v", e.source, v.Sources)
			}
		}
	}
	return ""
}

// tally counts one replay's outcomes against the workload's ground truth.
type tally struct {
	attempted     int
	transport     int // no HTTP answer (or not sent)
	non200        int // 429/503 included
	verdictErrors int
	firstErrors   []string
}

func (t *tally) note(msg string) {
	if len(t.firstErrors) < 5 {
		t.firstErrors = append(t.firstErrors, msg)
	}
}

func (t *tally) failed() int { return t.transport + t.non200 + t.verdictErrors }

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// checkAll tallies every op of a replay.
func checkAll(ops []op, res []opResult) tally {
	t := tally{attempted: len(ops)}
	for i := range ops {
		r := &res[i]
		switch {
		case !r.done && r.err == nil:
			t.transport++
			t.note(fmt.Sprintf("op %d (%s): never completed", i, ops[i].kind))
		case r.err != nil:
			if _, ok := r.err.(*statusErr); ok {
				t.non200++
			} else {
				t.transport++
			}
			t.note(fmt.Sprintf("op %d (%s): %v", i, ops[i].kind, r.err))
		default:
			if msg := checkVerdict(ops[i].expect, r.verdict); msg != "" {
				t.verdictErrors++
				t.note(fmt.Sprintf("op %d (%s %s): %s", i, ops[i].kind, ops[i].seg, msg))
			}
		}
	}
	return t
}

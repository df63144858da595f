package main

import (
	"strings"
	"testing"
)

// Either spelling of a family is read; one missing under both is absent,
// never 0.
func TestParseExpositionSpellings(t *testing.T) {
	legacy := `# TYPE browserflow_wal_records_total counter
browserflow_wal_records_total 10
browserflow_wal_fsync_latency_seconds{quantile="0.5"} 0.001
browserflow_wal_fsync_latency_seconds{quantile="0.99"} 0.004
browserflow_admission_shed_total{lane="interactive"} 2
browserflow_admission_shed_total{lane="bulk"} 1
bf_admission_shed_total{lane="interactive",reason="queue-full"} 2
`
	moved := `bf_wal_records_total 10
bf_wal_fsync_p99_seconds 0.004
bf_admission_shed_total{lane="interactive",reason="queue-full"} 3
`
	for name, text := range map[string]string{"legacy": legacy, "moved": moved} {
		r, err := parseExposition(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v, err := r.need("wal.records"); err != nil || v != 10 {
			t.Errorf("%s: wal.records = %v, %v; want 10", name, v, err)
		}
		if v, err := r.need("wal.fsync_p99_s"); err != nil || v != 0.004 {
			t.Errorf("%s: wal.fsync_p99_s = %v, %v; want 0.004", name, v, err)
		}
		if v, err := r.need("admission.shed"); err != nil || v != 3 {
			t.Errorf("%s: admission.shed = %v, %v; want 3 (one spelling, summed over labels)", name, v, err)
		}
		if _, err := r.need("wal.bytes"); err == nil {
			t.Errorf("%s: wal.bytes is exported under no spelling but was not reported absent", name)
		}
	}
}

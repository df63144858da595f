package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// spelling is one exported name of a scraped family; label, when set,
// selects the samples whose label set contains it.
type spelling struct {
	name  string
	label string
}

// family is one scraped quantity under every spelling the program has
// exported it with. The first spelling present wins (the same counter is
// exported under both prefixes today); samples of that spelling are
// summed over their label sets.
type family struct {
	key       string
	spellings []spelling
	max       bool // across nodes, keep the largest value instead of the sum
}

// scrapeTable is the single list of /v1/metrics families the benchmark
// reads. The browserflow_ and bf_ spellings are both accepted, so moving
// a family between the two metric systems cannot silently zero a layer
// metric: a family missing under every spelling is absent, and a run
// that needs it fails.
var scrapeTable = []family{
	{"wal.records", []spelling{{"browserflow_wal_records_total", ""}, {"bf_wal_records_total", ""}}, false},
	{"wal.bytes", []spelling{{"browserflow_wal_bytes_total", ""}, {"bf_wal_bytes_total", ""}}, false},
	{"wal.fsyncs", []spelling{{"browserflow_wal_fsyncs_total", ""}, {"bf_wal_fsyncs_total", ""}}, false},
	{"wal.fsync_p99_s", []spelling{
		{"browserflow_wal_fsync_latency_seconds", `quantile="0.99"`},
		{"bf_wal_fsync_p99_seconds", ""},
	}, true},
	{"admission.folds", []spelling{{"browserflow_admission_folds_total", ""}, {"bf_admission_folds_total", ""}}, false},
	{"admission.shed", []spelling{{"browserflow_admission_shed_total", ""}, {"bf_admission_shed_total", ""}}, false},
}

// scrapeResult maps family keys to values; a missing key is absent.
type scrapeResult map[string]float64

// need returns the value of key, or an error naming every spelling tried.
func (s scrapeResult) need(key string) (float64, error) {
	if v, ok := s[key]; ok {
		return v, nil
	}
	for _, f := range scrapeTable {
		if f.key == key {
			var names []string
			for _, sp := range f.spellings {
				names = append(names, sp.name)
			}
			return 0, fmt.Errorf("metric family %s absent (tried %s)", key, strings.Join(names, ", "))
		}
	}
	return 0, fmt.Errorf("metric family %s is not in the scrape table", key)
}

// parseExposition reads Prometheus text exposition into the table's
// families.
func parseExposition(r io.Reader) (scrapeResult, error) {
	type sample struct{ labels, value string }
	byName := make(map[string][]sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		byName[name] = append(byName[name], sample{labels, value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(scrapeResult)
	for _, f := range scrapeTable {
		for _, sp := range f.spellings {
			samples, ok := byName[sp.name]
			if !ok {
				continue
			}
			var sum float64
			matched := false
			for _, s := range samples {
				if sp.label != "" && !strings.Contains(s.labels, sp.label) {
					continue
				}
				v, err := strconv.ParseFloat(s.value, 64)
				if err != nil {
					return nil, fmt.Errorf("%s%s: %w", sp.name, s.labels, err)
				}
				sum += v
				matched = true
			}
			if matched {
				out[f.key] = sum
				break
			}
		}
	}
	return out, nil
}

// scrape fetches and parses base's /v1/metrics.
func scrape(base string) (scrapeResult, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/metrics: HTTP %d", base, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// Command perfbench is BrowserFlow's end-to-end benchmark. It starts the
// real bftagd/bfproxy daemons from fresh directories, drives them with an
// open-loop generator of keystroke observes and paste/upload checks,
// checks every verdict against the generator's ground truth, and prints
// the end-to-end metrics. With -trace 1 it instead builds the same layers
// inside its own process, replays the same ops with timing wrappers
// around the layers' public interfaces, and prints per-layer metrics.
//
// Run it from the root of a checkout through perfbench/run.sh, which
// builds the daemons and this command first:
//
//	bash perfbench/run.sh --workload typing --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. LAYERS.md lists the
// workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// lateBoundMS is the generator's own bound: a replay whose dispatcher
// released its p99 op later than this after the op was due measured the
// generator, not the system, and is rejected. Lateness is charged to the
// ops' latency (it counts from the intended send time), so the bound is
// a quarter of the 200 ms decision limit rather than a share of the
// latencies themselves.
const lateBoundMS = 50.0

// setups is how many times a run sets the workload up; setup_s is their
// median and the last one is measured.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is printed before the result line so every result carries
// the conditions it was measured under.
type runRecord struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Trace         bool               `json:"trace"`
	Nproc         int                `json:"nproc"`
	GOMAXPROCS    map[string]int     `json:"gomaxprocs"`
	GoVersion     string             `json:"go_version"`
	Commit        string             `json:"commit"`
	OfferedRPS    float64            `json:"offered_rps"`
	Fsync         string             `json:"fsync"`
	Conns         int                `json:"connections"`
	CorpusHashes  int                `json:"corpus_hashes"`
	DecisionLimit float64            `json:"decision_limit_ms"`
	VerdictErrors int                `json:"verdict_errors"`
	FailedFrac    float64            `json:"failed_frac"`
	Extra         map[string]float64 `json:"extra"`
	Errors        []string           `json:"errors,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "typing | paste_check | routed")
		seed     = fs.Int64("seed", 1, "generator seed")
		seconds  = fs.Float64("seconds", 10, "measured window per replay")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics from the daemons; 1: per-layer metrics from the in-process traced run")
		binDir   = fs.String("bin", "", "directory holding the built bftagd and bfproxy")
		workDir  = fs.String("work", "", "directory for per-run data (WAL, rings, logs)")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	s, ok := specs[*workload]
	if !ok || *binDir == "" || *workDir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload typing|paste_check|routed, -bin, -work, -seconds > 0 and -trace 0|1")
		return 2
	}
	nproc := runtime.NumCPU()
	if numConns > nproc {
		fmt.Fprintf(os.Stderr, "perfbench: %d connections exceed nproc %d\n", numConns, nproc)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*workDir, fmt.Sprintf("%s-%d-*", s.name, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	rec := runRecord{
		Workload: s.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Nproc: nproc, GoVersion: runtime.Version(), Commit: commit(),
		OfferedRPS: s.rate, Fsync: "always", Conns: numConns, DecisionLimit: 200,
		GOMAXPROCS: map[string]int{"perfbench": runtime.GOMAXPROCS(0), "daemons": nproc},
		Extra:      map[string]float64{},
	}
	var out *output
	if *trace == 1 {
		out, err = runTraced(ctx, s, *seed, *seconds, *binDir, runDir, &rec)
	} else {
		out, err = runDaemons(ctx, s, *seed, *seconds, *binDir, runDir, &rec)
	}
	if left := strays(*binDir); len(left) > 0 {
		err = fmt.Errorf("stray daemons survived the run: %s (previous error: %v)", strings.Join(left, ", "), err)
	}
	if recJSON, jerr := json.Marshal(rec); jerr == nil {
		fmt.Println("record " + string(recJSON))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, name := range sortedKeys(out.Metrics) {
		m := out.Metrics[name]
		fmt.Printf("%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range []string{"decision_p50_ms", "decision_p99_ms", "server_cpu_us_per_op"} {
		if v, ok := rec.Extra[name]; ok {
			fmt.Printf("%-34s %14.4f (run record, not gated)\n", name, v)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d verdict errors: %s\n", rec.VerdictErrors, strings.Join(rec.Errors, "; "))
		return 1
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// commit returns the VCS revision stamped into the binary, when the build
// ran inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finishTally folds a replay's outcome into the record and the result.
func finishTally(rec *runRecord, t tally) (correct bool) {
	rec.VerdictErrors = t.verdictErrors
	rec.FailedFrac = t.failedFrac()
	rec.Errors = t.firstErrors
	rec.Extra["transport_errors"] = float64(t.transport)
	rec.Extra["non200"] = float64(t.non200)
	return t.verdictErrors == 0
}

// setUp deploys the workload's daemons, preloads the corpus, warms up and
// waits for the replica, returning the deployment and how long it took.
func setUp(ctx context.Context, s spec, w *workload, binDir, dir string) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := deploy(ctx, s, binDir, dir, runtime.NumCPU())
	if err != nil {
		return nil, 0, err
	}
	if err := preload(ctx, d.front, w.preload); err != nil {
		d.stop()
		return nil, 0, err
	}
	if err := warmUp(d.front, w); err != nil {
		d.stop()
		return nil, 0, err
	}
	if d.replica != "" {
		if _, err := waitCaughtUp(ctx, d.replica, 60*time.Second); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	return d, time.Since(start), nil
}

// warmUp sends the warm-up ops back to back and checks their verdicts.
func warmUp(base string, w *workload) error {
	conns := make([]executor, numConns)
	for i := range conns {
		c := newHTTPConn(base, false)
		defer c.close()
		conns[i] = c
	}
	g := replay(w.warmup, conns, 0)
	if t := checkAll(w.warmup, g.results); t.failed() > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %s", t.failed(), t.attempted, strings.Join(t.firstErrors, "; "))
	}
	return nil
}

// runDaemons measures the end-to-end metrics against the real daemons.
func runDaemons(ctx context.Context, s spec, seed int64, seconds float64, binDir, runDir string, rec *runRecord) (*output, error) {
	w, err := buildWorkload(s, seed, seconds)
	if err != nil {
		return nil, err
	}
	rec.CorpusHashes = w.corpusHashes

	var d *deployment
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		var took time.Duration
		d, took, err = setUp(ctx, s, w, binDir, filepath.Join(runDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
	}

	before, err := scrapeAll(d.primaries)
	if err != nil {
		return nil, err
	}
	conns := make([]executor, numConns)
	for i := range conns {
		c := newHTTPConn(d.front, false)
		defer c.close()
		conns[i] = c
	}
	cpu0, err := d.cpuTicksByProc()
	if err != nil {
		return nil, err
	}
	var lp *lagPoller
	if d.replica != "" {
		lp = pollLag(d.replica)
	}
	dev0 := selfCPU()
	g := replay(w.ops, conns, time.Duration(seconds*float64(time.Second)))
	dev1 := selfCPU()
	cpu1, err := d.cpuTicksByProc()
	if err != nil {
		return nil, err
	}
	if lp != nil {
		rec.Extra["replication_lag_records_max"] = float64(lp.finish())
		catchup, err := waitCaughtUp(ctx, d.replica, 60*time.Second)
		if err != nil {
			return nil, err
		}
		rec.Extra["replication_catchup_ms"] = ms(catchup)
	}
	after, err := scrapeAll(d.primaries)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	t := checkAll(w.ops, g.results)
	correct := finishTally(rec, t)
	late := g.latePct(0.99)
	rec.Extra["gen_late_p99_ms"] = late
	rec.Extra["gen_completed_rps"] = float64(g.completed) / g.wall.Seconds()
	if late > lateBoundMS {
		return nil, fmt.Errorf("generator fell behind: dispatch lateness p99 %.2f ms > %.0f ms bound; run rejected", late, lateBoundMS)
	}
	if g.completed == 0 {
		return nil, fmt.Errorf("no op completed: %s", strings.Join(t.firstErrors, "; "))
	}
	for _, k := range []opKind{opObserve, opCheck, opUpload} {
		if lat := g.latencies(w.ops, k); len(lat) > 0 {
			rec.Extra[k.String()+"_p50_ms"] = percentile(lat, 0.50)
			rec.Extra[k.String()+"_p99_ms"] = percentile(lat, 0.99)
			rec.Extra[k.String()+"_count"] = float64(len(lat))
		}
	}
	if records := after["wal.records"] - before["wal.records"]; records > 0 {
		rec.Extra["wal_bytes_per_write"] = (after["wal.bytes"] - before["wal.bytes"]) / records
	}

	cpuPerOp := func(a, b []int64, n int) float64 {
		var ticks int64
		for i := 0; i < n; i++ {
			ticks += b[i] - a[i]
		}
		return float64(ticks) * 1e6 / clockTicks / float64(g.completed)
	}
	rec.Extra["server_cpu_us_per_op"] = cpuPerOp(cpu0, cpu1, len(d.procs))
	for i, p := range d.procs {
		rec.Extra["cpu_us_per_op."+p.name] = float64(cpu1[i]-cpu0[i]) * 1e6 / clockTicks / float64(g.completed)
	}
	// Decision latency and daemon CPU are in the run record, not among
	// the gated metrics: on a shared 2-vCPU virtual machine their
	// run-to-run spread follows the host's CPU steal (LAYERS.md).
	calm, calmSteal := g.calmLatencies(w.ops)
	all := g.latencies(w.ops)
	rec.Extra["decision_p50_ms"] = percentile(calm, 0.50)
	rec.Extra["decision_p99_ms"] = percentile(calm, 0.99)
	rec.Extra["decision_p50_whole_window_ms"] = percentile(all, 0.50)
	rec.Extra["decision_p99_whole_window_ms"] = percentile(all, 0.99)
	rec.Extra["steal_pct"] = 100 * g.stealShare(allWindows(len(g.steal)))
	rec.Extra["steal_pct_calm_half"] = 100 * calmSteal
	var wire int
	for i := range g.results {
		wire += g.results[i].bytes
	}
	out := &output{
		Correct:   correct,
		Attempted: t.attempted,
		Failed:    t.failed(),
		Metrics: map[string]metric{
			"setup_s":              {median(setupTimes), "s"},
			"device_cpu_us_per_op": {float64(dev1-dev0) / 1e3 / float64(g.completed), "us"},
			"wire_bytes_per_op":    {float64(wire) / float64(t.attempted), "B"},
			"server_rss_mb":        {rss, "MB"},
		},
	}
	return out, nil
}

// scrapeAll sums the scrape table over nodes; a family absent on any
// node is absent in the sum.
func scrapeAll(bases []string) (scrapeResult, error) {
	sum := make(scrapeResult)
	for i, base := range bases {
		r, err := scrape(base)
		if err != nil {
			return nil, err
		}
		for _, f := range scrapeTable {
			v, ok := r[f.key]
			if !ok {
				delete(sum, f.key)
				continue
			}
			prev, seen := sum[f.key]
			switch {
			case i > 0 && !seen:
			case f.max:
				sum[f.key] = max(prev, v)
			default:
				sum[f.key] = prev + v
			}
		}
	}
	return sum, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

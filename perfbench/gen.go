package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/tagserver"
)

// headerOp carries the op index to in-process handlers of the traced run,
// which file their spans under it.
const headerOp = "X-Bench-Op"

// clientTimeout bounds one request, as tagserver.DefaultClientTimeout
// does for a device.
const clientTimeout = tagserver.DefaultClientTimeout

// executor performs one op on one connection and returns its verdict.
// do returns the verdict and the bytes that crossed the wire both ways
// (request and response bodies; 0 for direct calls).
type executor interface {
	do(ctx context.Context, idx int, o *op, hashes []uint32) (tagserver.VerdictResponse, int, error)
}

// httpConn is one device connection: its own transport holding exactly
// one keep-alive TCP connection, so the ops pinned to it arrive in order.
type httpConn struct {
	base   string
	client *http.Client
	traced bool
}

func newHTTPConn(base string, traced bool) *httpConn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &httpConn{base: base, client: &http.Client{Transport: tr, Timeout: clientTimeout}, traced: traced}
}

func (c *httpConn) close() { c.client.CloseIdleConnections() }

// statusErr is a non-200 answer.
type statusErr struct {
	code int
	body string
}

func (e *statusErr) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// post sends one JSON request the way tagserver.Client does, decodes the
// JSON answer into out and returns the body bytes sent and received.
func (c *httpConn) post(ctx context.Context, idx int, path string, req, out interface{}) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.traced {
		hreq.Header.Set(headerOp, strconv.Itoa(idx))
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return len(body), err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return len(body) + len(msg), &statusErr{resp.StatusCode, string(bytes.TrimSpace(msg))}
	}
	cr := &countingReader{r: resp.Body}
	err = json.NewDecoder(cr).Decode(out)
	return len(body) + cr.n, err
}

func (c *httpConn) do(ctx context.Context, idx int, o *op, hashes []uint32) (tagserver.VerdictResponse, int, error) {
	var (
		v   tagserver.VerdictResponse
		n   int
		err error
	)
	switch o.kind {
	case opObserve:
		n, err = c.post(ctx, idx, "/v1/observe", tagserver.ObserveRequest{Device: "bench", Service: o.service, Seg: o.seg, Hashes: hashes}, &v)
	case opCheck:
		n, err = c.post(ctx, idx, "/v1/check", tagserver.CheckRequest{Device: "bench", Dest: o.dest, Hashes: hashes}, &v)
	case opUpload:
		n, err = c.post(ctx, idx, "/v1/upload", tagserver.UploadRequest{Device: "bench", Seg: o.seg, Dest: o.dest}, &v)
	}
	return v, n, err
}

// opResult is what the generator records per op.
type opResult struct {
	done    bool
	start   time.Duration // when the connection picked the op up, from window start
	hashes  int           // fingerprint size sent
	bytes   int           // request and response bodies
	fp      time.Duration // client-side fingerprint.Compute
	rt      time.Duration // request round trip
	latency time.Duration // completion minus intended send time
	err     error
	verdict tagserver.VerdictResponse
}

// genStats summarises one open-loop replay.
type genStats struct {
	results   []opResult
	late      []float64 // dispatcher lateness per op, ms
	wall      time.Duration
	completed int

	// The window is cut into subWindows equal parts by intended send
	// time; steal and total are the machine's CPU ticks in each part.
	window       time.Duration
	steal, total []int64
}

// subWindows is how many parts the measured window is cut into for the
// decision percentiles: 1.5 s parts of a 15 s window.
const subWindows = 10

// latePct returns the q-quantile of the dispatcher's lateness in ms.
func (g *genStats) latePct(q float64) float64 {
	s := append([]float64(nil), g.late...)
	sort.Float64s(s)
	return percentile(s, q)
}

// replay drives ops open-loop: one dispatcher releases each op at its
// intended time into the FIFO of its connection; one goroutine per
// connection fingerprints and sends them in order. Latency counts from
// the intended send time, so a stalled connection charges every op that
// queued behind it.
//
// A non-zero window also samples the machine's CPU steal at the
// boundaries of its sub-windows (see calmLatencies).
func replay(ops []op, conns []executor, window time.Duration) *genStats {
	g := &genStats{results: make([]opResult, len(ops)), late: make([]float64, len(ops)), window: window}
	fpCfg := fingerprint.DefaultConfig()
	queues := make([]chan int, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range conns {
		// Sized to every op so the dispatcher never blocks on a busy
		// connection: backlog shows up as latency, not as a late send.
		queues[c] = make(chan int, len(ops))
		wg.Add(1)
		go func(ex executor, q <-chan int) {
			defer wg.Done()
			for idx := range q {
				o := &ops[idx]
				r := &g.results[idx]
				t0 := time.Now()
				r.start = t0.Sub(start)
				var hashes []uint32
				if o.kind != opUpload {
					fp, err := fingerprint.Compute(o.text, fpCfg)
					if err != nil {
						r.err = err
						continue
					}
					hashes = fp.Hashes()
				}
				r.hashes = len(hashes)
				t1 := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), clientTimeout)
				r.verdict, r.bytes, r.err = ex.do(ctx, idx, o, hashes)
				cancel()
				t2 := time.Now()
				r.fp, r.rt = t1.Sub(t0), t2.Sub(t1)
				r.latency = t2.Sub(start) - o.at
				r.done = true
			}
		}(conns[c], queues[c])
	}
	// The dispatcher owns its thread and sleeps in nanosleep: time.Sleep
	// wakes up to a millisecond late for sub-millisecond waits, which
	// would charge the generator's own lateness to most ops.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var prevSteal, prevTotal int64
	if window > 0 {
		prevSteal, prevTotal = machineTicks()
	}
	sample := func() {
		st, tot := machineTicks()
		g.steal = append(g.steal, st-prevSteal)
		g.total = append(g.total, tot-prevTotal)
		prevSteal, prevTotal = st, tot
	}
	for idx := range ops {
		due := start.Add(ops[idx].at)
		if d := time.Until(due); d > 0 {
			sleepPrecise(d)
		}
		for window > 0 && len(g.steal) < g.part(ops[idx].at) {
			sample()
		}
		g.late[idx] = float64(time.Since(due)) / float64(time.Millisecond)
		queues[ops[idx].conn%len(conns)] <- idx
	}
	if window > 0 {
		if d := time.Until(start.Add(window)); d > 0 {
			sleepPrecise(d)
		}
		for len(g.steal) < subWindows {
			sample()
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	g.wall = time.Since(start)
	for i := range g.results {
		if g.results[i].done && g.results[i].err == nil {
			g.completed++
		}
	}
	return g
}

// sleepPrecise blocks the calling thread for d.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// latencyMS is op i's latency in ms. A failed op counts as missing every
// limit: it takes the client timeout.
func (g *genStats) latencyMS(i int) float64 {
	if r := &g.results[i]; r.done && r.err == nil {
		return float64(r.latency) / float64(time.Millisecond)
	}
	return float64(clientTimeout) / float64(time.Millisecond)
}

// latencies returns the sorted latencies in ms of the ops of the given
// kinds (all kinds when none are given).
func (g *genStats) latencies(ops []op, kinds ...opKind) []float64 {
	var out []float64
	for i := range ops {
		if len(kinds) == 0 || slices.Contains(kinds, ops[i].kind) {
			out = append(out, g.latencyMS(i))
		}
	}
	sort.Float64s(out)
	return out
}

// part returns the sub-window an intended send time falls in.
func (g *genStats) part(at time.Duration) int {
	return min(int(int64(at)*subWindows/int64(g.window)), subWindows-1)
}

// calmLatencies returns the sorted latencies in ms of the ops sent in
// the half of the sub-windows with the least machine-wide CPU steal, and
// the steal share over those sub-windows. On a shared virtual machine
// other guests take CPU from this one in bursts; their time is not the
// program's, so the decision percentiles pool the calmest half of the
// window.
func (g *genStats) calmLatencies(ops []op) ([]float64, float64) {
	parts := allWindows(len(g.steal))
	sort.SliceStable(parts, func(a, b int) bool {
		return g.stealShare([]int{parts[a]}) < g.stealShare([]int{parts[b]})
	})
	parts = parts[:len(parts)/2]
	calm := make(map[int]bool, len(parts))
	for _, p := range parts {
		calm[p] = true
	}
	var out []float64
	for i := range ops {
		if calm[g.part(ops[i].at)] {
			out = append(out, g.latencyMS(i))
		}
	}
	sort.Float64s(out)
	return out, g.stealShare(parts)
}

func allWindows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// stealShare is the machine's CPU steal over the given sub-windows as a
// share of all CPU ticks in them.
func (g *genStats) stealShare(parts []int) float64 {
	var st, tot int64
	for _, p := range parts {
		st += g.steal[p]
		tot += g.total[p]
	}
	if tot == 0 {
		return 0
	}
	return float64(st) / float64(tot)
}

// machineTicks returns the machine's cumulative CPU steal and total
// ticks from the first line of /proc/stat (user nice system idle iowait
// irq softirq steal; guest time is already in user).
func machineTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

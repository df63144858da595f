package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/tagserver"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
const clockTicks = 100

// proc is one daemon the benchmark started.
type proc struct {
	name   string
	cmd    *exec.Cmd
	base   string
	waited chan struct{}
}

// startProc starts bin with args and waits for its ready line on stdout,
// "<readyMarker> <addr>". The daemon dies with the benchmark (Pdeathsig)
// even when the benchmark itself is killed.
func startProc(ctx context.Context, bin, name, logDir, readyMarker string, gomaxprocs int, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logFile, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, waited: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if i := strings.Index(line, readyMarker); i >= 0 && !sent {
				rest := strings.Fields(line[i+len(readyMarker):])
				if len(rest) > 0 {
					addrCh <- rest[0]
					sent = true
				}
			}
		}
		_ = cmd.Wait() // the exit status of a stopped daemon is not a result
		logFile.Close()
		close(p.waited)
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
		return p, nil
	case <-p.waited:
		return nil, fmt.Errorf("%s exited before it was ready (see %s.log)", name, name)
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s not ready after 60s", name)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

// stop sends SIGTERM, then SIGKILL after a grace, and reaps the process.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
		return
	case <-time.After(10 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.waited
}

// cpuTicks returns the process's user+system CPU in clock ticks.
func (p *proc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat for %s", p.name)
	}
	return u + st, nil
}

// peakRSSKB returns the process's VmHWM in KiB.
func (p *proc) peakRSSKB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// deployment is one set-up of a workload's daemons.
type deployment struct {
	dir       string
	procs     []*proc
	front     string   // where the devices connect
	primaries []string // nodes that own a WAL
	replica   string   // streaming replica, if any
}

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
	d.procs = nil
}

// cpuTicksByProc returns each daemon's CPU ticks, in d.procs order.
func (d *deployment) cpuTicksByProc() ([]int64, error) {
	out := make([]int64, len(d.procs))
	for i, p := range d.procs {
		t, err := p.cpuTicks()
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

func (d *deployment) peakRSSMB() (float64, error) {
	var sum int64
	for _, p := range d.procs {
		kb, err := p.peakRSSKB()
		if err != nil {
			return 0, err
		}
		sum += kb
	}
	return float64(sum) / 1024, nil
}

// freeAddr reserves a loopback port the kernel picked and releases it for
// a daemon that must know its address before it starts (ring members).
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// twoPartRing is the routed workload's ring: p0 below routedSkew, p1 at
// and above it.
func twoPartRing(a0, a1 string) *partition.Ring {
	return &partition.Ring{Version: 1, Partitions: []partition.Partition{
		{ID: "p0", Lo: 0, Hi: routedSkew - 1, Nodes: []string{a0}},
		{ID: "p1", Lo: routedSkew, Hi: math.MaxUint32, Nodes: []string{a1}},
	}}
}

// deploy starts the workload's daemons from a fresh directory with the
// shipped defaults (-fsync always, admission on).
func deploy(ctx context.Context, s spec, binDir, dir string, gmp int) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	policyPath := filepath.Join(dir, "policy.json")
	if err := os.WriteFile(policyPath, []byte(policyJSON), 0o644); err != nil {
		return nil, err
	}
	d := &deployment{dir: dir}
	tagd := filepath.Join(binDir, "bftagd")
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	if !s.routed {
		p, err := startProc(ctx, tagd, "primary", dir, "serving on", gmp,
			"-policy", policyPath, "-addr", "127.0.0.1:0", "-wal-dir", filepath.Join(dir, "wal-primary"), "-fsync", "always")
		if err != nil {
			return fail(err)
		}
		d.procs = append(d.procs, p)
		d.front, d.primaries = p.base, []string{p.base}
		if s.replica {
			r, err := startProc(ctx, tagd, "replica", dir, "serving on", gmp,
				"-policy", policyPath, "-addr", "127.0.0.1:0", "-wal-dir", filepath.Join(dir, "wal-replica"),
				"-replica-of", p.base)
			if err != nil {
				return fail(err)
			}
			d.procs = append(d.procs, r)
			d.replica = r.base
		}
		return d, nil
	}
	var addrs [2]string
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		addrs[i] = a
	}
	ring := twoPartRing("http://"+addrs[0], "http://"+addrs[1])
	for i, id := range []string{"p0", "p1"} {
		ringPath := filepath.Join(dir, id+".ring")
		if err := partition.SaveRingFile(ringPath, ring); err != nil {
			return fail(err)
		}
		p, err := startProc(ctx, tagd, id, dir, "serving on", gmp,
			"-policy", policyPath, "-addr", addrs[i], "-advertise", "http://"+addrs[i],
			"-wal-dir", filepath.Join(dir, "wal-"+id), "-fsync", "always",
			"-ring-file", ringPath, "-partition-id", id)
		if err != nil {
			return fail(err)
		}
		d.procs = append(d.procs, p)
		d.primaries = append(d.primaries, p.base)
	}
	routerRing := filepath.Join(dir, "router.ring")
	if err := partition.SaveRingFile(routerRing, ring); err != nil {
		return fail(err)
	}
	r, err := startProc(ctx, filepath.Join(binDir, "bfproxy"), "router", dir, "routing tier on", gmp,
		"-ring-file", routerRing, "-addr", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	d.procs = append(d.procs, r)
	d.front = r.base
	return d, nil
}

// preload observes the corpus through base's batch endpoint, one service
// at a time, in request bodies well under the daemons' 1 MiB bound.
func preload(ctx context.Context, base string, items []preloadItem) error {
	c := &http.Client{Timeout: 60 * time.Second}
	const maxHashes, maxItems = 40000, 1500
	for i := 0; i < len(items); {
		req := tagserver.BatchObserveRequest{Device: "bench-preload", Service: items[i].service}
		n := 0
		for i < len(items) && items[i].service == req.Service && n+len(items[i].hashes) <= maxHashes && len(req.Items) < maxItems {
			req.Items = append(req.Items, tagserver.BatchObserveItem{Seg: items[i].seg, Hashes: items[i].hashes})
			n += len(items[i].hashes)
			i++
		}
		if len(req.Items) == 0 { // one paragraph above maxHashes
			req.Items = append(req.Items, tagserver.BatchObserveItem{Seg: items[i].seg, Hashes: items[i].hashes})
			i++
		}
		var resp tagserver.BatchObserveResponse
		conn := &httpConn{base: base, client: c}
		if _, err := conn.post(ctx, 0, "/v1/observe/batch", req, &resp); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if len(resp.Verdicts) != len(req.Items) {
			return fmt.Errorf("preload: %d verdicts for %d items", len(resp.Verdicts), len(req.Items))
		}
	}
	return nil
}

// healthz fetches base's /healthz document.
func healthz(base string) (tagserver.HealthResponse, error) {
	var h tagserver.HealthResponse
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("GET %s/healthz: HTTP %d", base, resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// waitCaughtUp polls a replica until it is connected with no lag and
// returns how long that took.
func waitCaughtUp(ctx context.Context, replica string, limit time.Duration) (time.Duration, error) {
	start := time.Now()
	for {
		h, err := healthz(replica)
		if err == nil && h.Replication != nil && h.Replication.Connected && h.Replication.LagRecords == 0 {
			return time.Since(start), nil
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("replica %s not caught up after %v (last error %v)", replica, limit, err)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// lagPoller samples a replica's lag until stopped and keeps the maximum.
type lagPoller struct {
	stop chan struct{}
	done chan struct{}
	max  int64
}

func pollLag(replica string) *lagPoller {
	lp := &lagPoller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(lp.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-lp.stop:
				return
			case <-t.C:
				if h, err := healthz(replica); err == nil && h.Replication != nil && h.Replication.LagRecords > lp.max {
					lp.max = h.Replication.LagRecords
				}
			}
		}
	}()
	return lp
}

// finish stops the poller and returns the maximum lag it saw.
func (lp *lagPoller) finish() int64 {
	close(lp.stop)
	<-lp.done
	return lp.max
}

// strays lists live processes started from binDir: after every daemon
// has been reaped there must be none.
func strays(binDir string) []string {
	entries, _ := os.ReadDir("/proc")
	var out []string
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil {
			continue
		}
		if exe == filepath.Join(binDir, "bftagd") || exe == filepath.Join(binDir, "bfproxy") {
			out = append(out, fmt.Sprintf("%s (pid %d)", filepath.Base(exe), pid))
		}
	}
	return out
}

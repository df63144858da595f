package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/lsds/browserflow"
	"github.com/lsds/browserflow/internal/admission"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/partition"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/replication"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/tagserver"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// The traced run builds the daemons' layers inside this process, the way
// bftagd and bfproxy build them, and times only calls into the layers'
// public functions from benchmark code:
//   - wrappers around the interfaces the layers accept (http.Handler,
//     admission.Engine, policy.Journal, the router's client transport)
//     give nested spans per op, filed under the op index the client sends
//     in headerOp;
//   - disclosure.Tracker and tdm.Registry are reached only through
//     concrete types, so a decomposed replay on a twin build calls their
//     public functions in the order policy.Engine does and times each.
// A third, unwrapped twin gives the tracing overhead.

// opTrace collects one op's spans. The router's scatter legs run
// concurrently, hence the mutex.
type opTrace struct {
	index     int
	mu        sync.Mutex
	root      time.Duration // outermost server handler (node, or router on routed)
	engine    time.Duration // admission.Engine calls
	journal   time.Duration // policy.Journal calls
	legs      []span        // router -> partition round trips
	reqBytes  int64
	respBytes int64
}

type span struct{ start, end time.Time }

type traceKey struct{}

// tracer holds one opTrace per measured op, indexed like the ops.
type tracer struct{ ops []opTrace }

func (tr *tracer) fromHeader(r *http.Request) *opTrace {
	idx, err := strconv.Atoi(r.Header.Get(headerOp))
	if err != nil || idx < 0 || idx >= len(tr.ops) {
		return nil
	}
	return &tr.ops[idx]
}

func traceOf(ctx context.Context) *opTrace {
	t, _ := ctx.Value(traceKey{}).(*opTrace)
	return t
}

// timedHandler spans the ServeHTTP of the server the device talks to. A
// partition node behind the router (root false) only passes the op's
// trace on to its engine and journal.
type timedHandler struct {
	next http.Handler
	tr   *tracer
	root bool
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.tr.fromHeader(r)
	if t == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	r = r.WithContext(context.WithValue(r.Context(), traceKey{}, t))
	if !h.root {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	d := time.Since(start)
	t.mu.Lock()
	t.root += d
	t.reqBytes += r.ContentLength
	t.respBytes += cw.n
	t.mu.Unlock()
}

// timedEngine spans the admission pipeline's calls into the engine.
type timedEngine struct{ admission.Engine }

func (e timedEngine) ObserveEditFPCtx(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	start := time.Now()
	v, err := e.Engine.ObserveEditFPCtx(ctx, seg, service, fp)
	if t := traceOf(ctx); t != nil {
		d := time.Since(start)
		t.mu.Lock()
		t.engine += d
		t.mu.Unlock()
	}
	return v, err
}

// timedJournal spans the engine's observe journalling into store.Durable.
type timedJournal struct{ policy.Journal }

func (j timedJournal) Observe(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32) error {
	start := time.Now()
	err := j.Journal.Observe(ctx, seg, service, g, hashes)
	addJournal(ctx, start)
	return err
}

func (j timedJournal) ObserveResolved(ctx context.Context, seg segment.ID, service string, g segment.Granularity, hashes []uint32, clock uint64, sources []disclosure.Source, tags map[segment.ID][]string) error {
	start := time.Now()
	err := j.Journal.ObserveResolved(ctx, seg, service, g, hashes, clock, sources, tags)
	addJournal(ctx, start)
	return err
}

func addJournal(ctx context.Context, start time.Time) {
	if t := traceOf(ctx); t != nil {
		d := time.Since(start)
		t.mu.Lock()
		t.journal += d
		t.mu.Unlock()
	}
}

// timedTransport spans the router's round trips to partition nodes and
// forwards the op index so the node's handler files its span too.
type timedTransport struct{ next http.RoundTripper }

func (tt timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t := traceOf(r.Context())
	if t == nil {
		return tt.next.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(headerOp, strconv.Itoa(t.index))
	// The leg ends with the response headers; the small JSON body is
	// already buffered by then.
	start := time.Now()
	resp, err := tt.next.RoundTrip(r)
	end := time.Now()
	t.mu.Lock()
	t.legs = append(t.legs, span{start, end})
	t.mu.Unlock()
	return resp, err
}

// staticPart is a partition node's view of a fixed ring.
type staticPart struct {
	id      string
	ring    *partition.Ring
	encoded []byte
}

func newStaticPart(id string, ring *partition.Ring) (*staticPart, error) {
	if err := ring.Validate(); err != nil {
		return nil, err
	}
	enc, err := partition.EncodeRing(ring)
	if err != nil {
		return nil, err
	}
	return &staticPart{id: id, ring: ring, encoded: enc}, nil
}

func (p *staticPart) ID() string          { return p.id }
func (p *staticPart) RingVersion() uint64 { return p.ring.Version }
func (p *staticPart) Owns(seg segment.ID) bool {
	q, ok := p.ring.ByID(p.id)
	return ok && q.Contains(segment.Key(seg))
}
func (p *staticPart) KeyRange() (uint32, uint32) {
	q, _ := p.ring.ByID(p.id)
	return q.Lo, q.Hi
}
func (p *staticPart) Sole() bool        { return len(p.ring.Partitions) == 1 }
func (p *staticPart) Resharding() bool  { return false }
func (p *staticPart) RingBytes() []byte { return p.encoded }
func (p *staticPart) SetRing([]byte) (uint64, error) {
	return 0, errors.New("perfbench: the ring is fixed for the run")
}

// nodeOpts selects a build's wrappers. Nil functions leave a layer as
// bftagd wires it.
type nodeOpts struct {
	dir         string
	policyPath  string
	addr        string // listen address ("127.0.0.1:0" unless a ring names it)
	part        tagserver.PartitionState
	wrapEngine  func(*policy.Engine, policy.Journal) admission.Engine
	wrapJournal func(policy.Journal) policy.Journal
	wrapHandler func(http.Handler) http.Handler
}

// node is one in-process tag service built like bftagd with -wal-dir,
// -fsync always and admission on.
type node struct {
	mw       *browserflow.Middleware
	durable  *store.Durable
	pipeline *admission.Pipeline
	srv      *http.Server
	base     string
	served   chan struct{}
}

func buildNode(o nodeOpts) (*node, error) {
	mw, err := browserflow.NewFromPolicyFile(o.policyPath)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, err
	}
	n := &node{mw: mw, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	fail := func(err error) (*node, error) {
		ln.Close()
		n.closeStores()
		return nil, err
	}
	logf := func(string, ...interface{}) {}
	services := mw.Registry().Services()
	n.durable, err = store.OpenDurable(store.DurableOptions{
		Dir:             o.dir,
		Fsync:           wal.SyncAlways,
		FsyncInterval:   wal.DefaultSyncInterval,
		CheckpointEvery: time.Minute,
		ScrubEvery:      time.Hour,
		ScrubRateMB:     8,
		OnDiskFull:      store.OnDiskFullPrune,
		FailOpen:        mw.Engine().Mode() == policy.ModeAdvisory,
		Logf:            logf,
	}, mw.Tracker(), mw.Registry())
	if err != nil {
		return fail(err)
	}
	for _, svc := range services {
		if err := mw.Registry().RegisterService(svc.Name, svc.Privilege, svc.Confidentiality); err != nil && !errors.Is(err, tdm.ErrServiceExists) {
			return fail(err)
		}
	}
	var journal policy.Journal = n.durable
	if o.wrapJournal != nil {
		journal = o.wrapJournal(journal)
	}
	mw.Engine().SetJournal(journal)

	o11y := obs.New(nil, 0)
	rnode, err := replication.NewNode(replication.NodeOptions{
		Role: replication.RolePrimary, Self: n.base, TermFile: filepath.Join(o.dir, "TERM"), Logf: logf,
	})
	if err != nil {
		return fail(err)
	}
	primaryOpts := replication.PrimaryOptions{Logf: logf}
	repl := replication.NewService(rnode, primaryOpts, logf)
	repl.SetObs(o11y)
	repl.SetPrimary(replication.NewPrimary(rnode, n.durable, primaryOpts))

	var eng admission.Engine = mw.Engine()
	if o.wrapEngine != nil {
		eng = o.wrapEngine(mw.Engine(), journal)
	}
	n.pipeline, err = admission.New(eng, admission.Config{
		InteractiveQueue: 4096, BulkQueue: 256, MaxDwell: 2 * time.Second, Obs: o11y,
	})
	if err != nil {
		return fail(err)
	}
	durable := n.durable
	opts := []tagserver.ServerOption{
		tagserver.WithMaxBodyBytes(tagserver.DefaultMaxBodyBytes),
		tagserver.WithObs(o11y),
		tagserver.WithPolicyInfo(mw.PolicyHash(), len(mw.Registry().Services())),
		tagserver.WithDurabilitySource(func() (store.DurabilityStats, bool) { return durable.Stats(), true }),
		tagserver.WithAdmission(n.pipeline),
	}
	if o.part != nil {
		opts = append(opts, tagserver.WithPartition(o.part))
	}
	server, err := tagserver.NewServer(mw.Engine(), opts...)
	if err != nil {
		return fail(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/repl/", repl.Handler())
	mux.Handle("/", replication.Guard(rnode, server, logf))
	var h http.Handler = mux
	if o.wrapHandler != nil {
		h = o.wrapHandler(h)
	}
	n.srv = &http.Server{Handler: h, ReadTimeout: 10 * time.Second, ReadHeaderTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: 20 * time.Second}
	go func() {
		defer close(n.served)
		_ = n.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return n, nil
}

func (n *node) closeStores() {
	if n.pipeline != nil {
		_ = n.pipeline.Close(context.Background())
	}
	if n.durable != nil {
		_ = n.durable.Close()
	}
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	<-n.served
	n.closeStores()
}

// decompRec is one op's timings from the decomposed replay.
type decompRec struct {
	pipeline   time.Duration // admission.Pipeline.Observe
	engine     time.Duration // the decomposed engine call inside it
	disclosure time.Duration // Tracker.ObserveParagraphFP
	refresh    time.Duration // Registry.RefreshImplicit
	release    time.Duration // Registry.CheckRelease
	query      time.Duration // Tracker.QueryParagraphFP
	check      time.Duration // Engine.CheckFP or Engine.CheckUpload
	timedCheck bool          // check timed the engine call, not its child
	cacheHit   bool
	sources    int
}

type decompKey struct{}

// decompEngine is the admission.Engine of the decomposed replay: for a
// measured op it performs policy.Engine.ObserveEditFPCtx's steps by their
// public functions, in the engine's order, timing each; otherwise it
// calls the engine.
type decompEngine struct {
	*policy.Engine
	journal policy.Journal
}

func (d decompEngine) ObserveEditFPCtx(ctx context.Context, seg segment.ID, service string, fp *fingerprint.Fingerprint) (policy.Verdict, error) {
	rec, _ := ctx.Value(decompKey{}).(*decompRec)
	if rec == nil {
		return d.Engine.ObserveEditFPCtx(ctx, seg, service, fp)
	}
	start := time.Now()
	defer func() { rec.engine = time.Since(start) }()
	end := d.journal.Begin()
	defer end()
	reg, trk := d.Registry(), d.Tracker()
	if _, err := reg.ObserveSegment(seg, service); err != nil {
		return policy.Verdict{}, err
	}
	t1 := time.Now()
	report, err := trk.ObserveParagraphFP(seg, fp)
	if err != nil {
		return policy.Verdict{}, err
	}
	t2 := time.Now()
	reg.RefreshImplicit(seg, report.SourceSegs())
	t3 := time.Now()
	if err := d.journal.Observe(ctx, seg, service, segment.GranularityParagraph, fp.Hashes()); err != nil {
		return policy.Verdict{}, fmt.Errorf("%w: %v", policy.ErrJournal, err)
	}
	t4 := time.Now()
	ok, violating, err := reg.CheckRelease(seg, service)
	if err != nil {
		return policy.Verdict{}, err
	}
	t5 := time.Now()
	rec.disclosure, rec.refresh, rec.release = t2.Sub(t1), t3.Sub(t2), t5.Sub(t4)
	rec.cacheHit, rec.sources = report.CacheHit, len(report.Sources)
	v := policy.Verdict{Seg: seg, Service: service, Sources: report.Sources, CacheHit: report.CacheHit, Decision: policy.DecisionAllow}
	if !ok {
		v.Violating = violating
		v.Decision = violationDecision(d.Mode())
	}
	return v, nil
}

// violationDecision mirrors the engine's mode-to-decision mapping.
func violationDecision(m policy.Mode) policy.Decision {
	switch m {
	case policy.ModeEnforcing:
		return policy.DecisionBlock
	case policy.ModeEncrypting:
		return policy.DecisionEncrypt
	default:
		return policy.DecisionWarn
	}
}

func wireVerdict(v policy.Verdict) tagserver.VerdictResponse {
	out := tagserver.VerdictResponse{Decision: v.Decision.String(), Violating: v.Violating}
	for _, s := range v.Sources {
		out.Sources = append(out.Sources, tagserver.SourceDT{Seg: s.Seg, Disclosure: s.Disclosure})
	}
	return out
}

// decompConn executes measured ops by direct calls on the decomposed
// build.
type decompConn struct {
	n    *node
	recs []decompRec
}

func (c *decompConn) do(ctx context.Context, idx int, o *op, hashes []uint32) (tagserver.VerdictResponse, int, error) {
	rec := &c.recs[idx]
	eng := c.n.mw.Engine()
	if o.kind == opObserve {
		fp := fingerprint.FromHashes(hashes)
		start := time.Now()
		v, err := c.n.pipeline.Observe(context.WithValue(ctx, decompKey{}, rec), o.service, o.seg, segment.GranularityParagraph, fp)
		rec.pipeline = time.Since(start)
		return wireVerdict(v), 0, err
	}
	// A check is one engine call with one child. Timing both on the same
	// op would time the second warm, so even ops time the engine call and
	// odd ops the child; the verdict always comes from the engine call.
	var (
		v   policy.Verdict
		err error
	)
	rec.timedCheck = idx%2 == 0
	t0 := time.Now()
	switch {
	case o.kind == opCheck && rec.timedCheck:
		v, err = eng.CheckFP(fingerprint.FromHashes(hashes), o.dest)
		rec.check = time.Since(t0)
	case o.kind == opCheck:
		fp := fingerprint.FromHashes(hashes)
		t0 = time.Now()
		rec.sources = len(eng.Tracker().QueryParagraphFP(fp, ""))
		rec.query = time.Since(t0)
		v, err = eng.CheckFP(fp, o.dest)
	case rec.timedCheck:
		v, err = eng.CheckUpload(o.seg, o.dest)
		rec.check = time.Since(t0)
	default:
		_, _, _ = eng.Registry().CheckRelease(o.seg, o.dest) // the verdict comes from CheckUpload below
		rec.release = time.Since(t0)
		v, err = eng.CheckUpload(o.seg, o.dest)
	}
	return wireVerdict(v), 0, err
}

// traceBuild is one in-process deployment of a workload.
type traceBuild struct {
	nodes   []*node
	front   string
	router  *http.Server
	routed  chan struct{}
	replica *proc
}

func (b *traceBuild) close() {
	if b.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = b.router.Shutdown(ctx)
		cancel()
		<-b.routed
	}
	if b.replica != nil {
		b.replica.stop()
	}
	for _, n := range b.nodes {
		n.close()
	}
}

// buildKind selects the wrappers of one in-process build.
type buildKind int

const (
	buildPlain  buildKind = iota // as the daemons, no wrappers
	buildTraced                  // span wrappers on every interface
	buildDecomp                  // decomposed engine for direct calls
)

func newTraceBuild(ctx context.Context, s spec, kind buildKind, tr *tracer, binDir, dir string) (*traceBuild, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	policyPath := filepath.Join(dir, "policy.json")
	if err := os.WriteFile(policyPath, []byte(policyJSON), 0o644); err != nil {
		return nil, err
	}
	b := &traceBuild{}
	opts := func(name, addr string, root bool) nodeOpts {
		o := nodeOpts{dir: filepath.Join(dir, name), policyPath: policyPath, addr: addr}
		switch kind {
		case buildTraced:
			o.wrapEngine = func(e *policy.Engine, _ policy.Journal) admission.Engine { return timedEngine{e} }
			o.wrapJournal = func(j policy.Journal) policy.Journal { return timedJournal{j} }
			o.wrapHandler = func(h http.Handler) http.Handler { return &timedHandler{next: h, tr: tr, root: root} }
		case buildDecomp:
			o.wrapEngine = func(e *policy.Engine, j policy.Journal) admission.Engine { return decompEngine{e, j} }
		}
		return o
	}
	if !s.routed {
		n, err := buildNode(opts("wal-primary", "127.0.0.1:0", true))
		if err != nil {
			return nil, err
		}
		b.nodes, b.front = []*node{n}, n.base
		if s.replica {
			r, err := startProc(ctx, filepath.Join(binDir, "bftagd"), "replica", dir, "serving on", runtime.NumCPU(),
				"-policy", policyPath, "-addr", "127.0.0.1:0", "-wal-dir", filepath.Join(dir, "wal-replica"), "-replica-of", n.base)
			if err != nil {
				b.close()
				return nil, err
			}
			b.replica = r
		}
		return b, nil
	}
	var addrs [2]string
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	ring := twoPartRing("http://"+addrs[0], "http://"+addrs[1])
	for i, id := range []string{"p0", "p1"} {
		ps, err := newStaticPart(id, ring)
		if err != nil {
			b.close()
			return nil, err
		}
		o := opts("wal-"+id, addrs[i], false)
		o.part = ps
		n, err := buildNode(o)
		if err != nil {
			b.close()
			return nil, err
		}
		b.nodes = append(b.nodes, n)
	}
	ropts := partition.RouterOptions{Device: "router", FP: fingerprint.DefaultConfig(), ScatterTimeout: 5 * time.Second}
	if kind == buildTraced {
		ropts.ClientOptions = []tagserver.ClientOption{tagserver.WithTransport(timedTransport{http.DefaultTransport})}
	}
	rt, err := partition.NewRouter(ring, ropts)
	if err != nil {
		b.close()
		return nil, err
	}
	primeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	rt.Prime(primeCtx)
	cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	var h http.Handler = partition.NewHandler(rt)
	if kind == buildTraced {
		h = &timedHandler{next: h, tr: tr, root: true}
	}
	b.router = &http.Server{Handler: h, ReadTimeout: 10 * time.Second, ReadHeaderTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: 20 * time.Second}
	b.routed = make(chan struct{})
	go func() {
		defer close(b.routed)
		_ = b.router.Serve(ln) // returns ErrServerClosed on close
	}()
	b.front = "http://" + ln.Addr().String()
	return b, nil
}

// heapAlloc returns live heap bytes after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// pass is one replay of the measured ops on one in-process build.
type pass struct {
	g            *genStats
	tally        tally
	mallocsPerOp float64
	scrapeBefore scrapeResult
	scrapeAfter  scrapeResult
	heapPerHash  float64
	distinct     int
	lagMax       int64
	catchup      time.Duration
	recs         []decompRec
}

func runPass(ctx context.Context, s spec, w *workload, kind buildKind, tr *tracer, binDir, dir string) (*pass, error) {
	b, err := newTraceBuild(ctx, s, kind, tr, binDir, dir)
	if err != nil {
		return nil, err
	}
	defer b.close()
	p := &pass{}
	heap0 := heapAlloc()
	if err := preload(ctx, b.front, w.preload); err != nil {
		return nil, err
	}
	for _, n := range b.nodes {
		p.distinct += n.mw.Tracker().Paragraphs().Stats().DistinctHashes
	}
	if heap1 := heapAlloc(); p.distinct > 0 && heap1 > heap0 {
		p.heapPerHash = float64(heap1-heap0) / float64(p.distinct)
	}
	if err := warmUp(b.front, w); err != nil {
		return nil, err
	}
	if b.replica != nil {
		if _, err := waitCaughtUp(ctx, b.replica.base, 60*time.Second); err != nil {
			return nil, err
		}
	}
	var bases []string
	for _, n := range b.nodes {
		bases = append(bases, n.base)
	}
	if p.scrapeBefore, err = scrapeAll(bases); err != nil {
		return nil, err
	}
	conns := make([]executor, numConns)
	switch kind {
	case buildDecomp:
		p.recs = make([]decompRec, len(w.ops))
		for i := range conns {
			conns[i] = &decompConn{n: b.nodes[0], recs: p.recs}
		}
	default:
		for i := range conns {
			c := newHTTPConn(b.front, kind == buildTraced)
			defer c.close()
			conns[i] = c
		}
	}
	var lp *lagPoller
	if b.replica != nil {
		lp = pollLag(b.replica.base)
	}
	// Start the window on a collected heap: the preload's request bodies
	// are garbage by now and would otherwise be collected inside it.
	runtime.GC()
	m0 := mallocs()
	p.g = replay(w.ops, conns, 0)
	p.mallocsPerOp = float64(mallocs()-m0) / float64(len(w.ops))
	if lp != nil {
		p.lagMax = lp.finish()
		if p.catchup, err = waitCaughtUp(ctx, b.replica.base, 60*time.Second); err != nil {
			return nil, err
		}
	}
	if p.scrapeAfter, err = scrapeAll(bases); err != nil {
		return nil, err
	}
	p.tally = checkAll(w.ops, p.g.results)
	if late := p.g.latePct(0.99); late > lateBoundMS {
		return nil, fmt.Errorf("generator fell behind: dispatch lateness p99 %.2f ms > %.0f ms bound; run rejected", late, lateBoundMS)
	}
	return p, nil
}

// meanLatencyUS is the mean end-to-end latency of completed ops, from
// the intended send time.
func meanLatencyUS(g *genStats) float64 {
	return meanUS(g, func(r *opResult) time.Duration { return r.latency })
}

// meanServiceUS is the mean time from picking an op up to its verdict:
// the latency without the wait for a busy connection, which amplifies
// any difference nonlinearly.
func meanServiceUS(g *genStats) float64 {
	return meanUS(g, func(r *opResult) time.Duration { return r.fp + r.rt })
}

func meanUS(g *genStats, f func(*opResult) time.Duration) float64 {
	var sum float64
	n := 0
	for i := range g.results {
		if r := &g.results[i]; r.done && r.err == nil {
			sum += float64(f(r))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e3
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// unionLen is the wall time covered by at least one span.
func unionLen(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	for i := 1; i < len(s); i++ { // insertion sort: a handful of legs
		for j := i; j > 0 && s[j].start.Before(s[j-1].start); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = x
			continue
		}
		if x.end.After(cur.end) {
			cur.end = x.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// runTraced produces the per-layer metrics. Its three passes share the
// measuring time: each replays the first third of the seeded schedule
// the untraced run sends, at the same rate.
func runTraced(ctx context.Context, s spec, seed int64, seconds float64, binDir, runDir string, rec *runRecord) (*output, error) {
	w, err := buildWorkload(s, seed, seconds/3)
	if err != nil {
		return nil, err
	}
	rec.CorpusHashes = w.corpusHashes
	tr := &tracer{ops: make([]opTrace, len(w.ops))}
	for i := range tr.ops {
		tr.ops[i].index = i
	}
	plain, err := runPass(ctx, s, w, buildPlain, nil, binDir, filepath.Join(runDir, "plain"))
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	traced, err := runPass(ctx, s, w, buildTraced, tr, binDir, filepath.Join(runDir, "traced"))
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	var decomp *pass
	if !s.routed {
		if decomp, err = runPass(ctx, s, w, buildDecomp, nil, binDir, filepath.Join(runDir, "decomp")); err != nil {
			return nil, fmt.Errorf("decomposed pass: %w", err)
		}
	}

	// Every pass's verdicts are checked; the result's counts are the
	// traced pass's, the one the layer metrics come from.
	errs := plain.tally.verdictErrors
	if decomp != nil {
		errs += decomp.tally.verdictErrors
	}
	correct := finishTally(rec, traced.tally) && errs == 0
	rec.VerdictErrors += errs

	m, err := layerMetrics(s, w, plain, traced, decomp, tr)
	if err != nil {
		return nil, err
	}
	return &output{Correct: correct, Attempted: traced.tally.attempted, Failed: traced.tally.failed(), Metrics: m}, nil
}

// layerMetrics turns the three passes into the per-layer metrics. Every
// time is a mean per op of the workload (ops a layer does not serve add
// 0), so the self times of the layers on the blocking path add up to
// the traced end-to-end mean.
func layerMetrics(s spec, w *workload, plain, traced, decomp *pass, tr *tracer) (map[string]metric, error) {
	n := float64(len(w.ops))
	var (
		queue, fp, client, tsSelf, admWait, polObs, polChk float64
		discObs, discQuery, release, refresh, journal      float64
		routeSelf, legsWall, legSum, legs, slowestShare    float64
		hashes, reqBytes, respBytes, cacheHits, sourcesSum float64
		routedOps                                          float64
	)
	// Decomposed-replay means per op kind, which split the spans the
	// traced build cannot see into.
	var dAdm, dDisc, dRefresh, dRelObs, dQuery, dCheckFP, dRelUpl, dUpload float64
	var nObs, nChk, nQuery, nUpl, nRel float64
	if decomp != nil {
		for i := range w.ops {
			r := &decomp.recs[i]
			switch w.ops[i].kind {
			case opObserve:
				nObs++
				dAdm += us(r.pipeline - r.engine)
				dDisc += us(r.disclosure)
				dRefresh += us(r.refresh)
				dRelObs += us(r.release)
				if r.cacheHit {
					cacheHits++
				}
			case opCheck:
				if r.timedCheck {
					nChk++
					dCheckFP += us(r.check)
				} else {
					nQuery++
					dQuery += us(r.query)
					sourcesSum += float64(r.sources)
				}
			case opUpload:
				if r.timedCheck {
					nUpl++
					dUpload += us(r.check)
				} else {
					nRel++
					dRelUpl += us(r.release)
				}
			}
		}
		div := func(x *float64, k float64) {
			if k > 0 {
				*x /= k
			}
		}
		for _, x := range []*float64{&dAdm, &dDisc, &dRefresh, &dRelObs} {
			div(x, nObs)
		}
		div(&dQuery, nQuery)
		div(&dCheckFP, nChk)
		div(&dRelUpl, nRel)
		div(&dUpload, nUpl)
	}
	nonneg := func(x float64) float64 { return max(x, 0) }
	for i := range w.ops {
		o, r, t := &w.ops[i], &traced.g.results[i], &tr.ops[i]
		queue += us(r.start - o.at)
		fp += us(r.fp)
		hashes += float64(r.hashes)
		client += nonneg(us(r.rt - t.root))
		reqBytes += float64(t.reqBytes)
		respBytes += float64(t.respBytes)
		journal += us(t.journal)
		if s.routed {
			routedOps++
			u := unionLen(t.legs)
			routeSelf += nonneg(us(t.root - u))
			legsWall += us(u)
			var slowest time.Duration
			for _, l := range t.legs {
				d := l.end.Sub(l.start)
				legSum += us(d)
				slowest = max(slowest, d)
			}
			legs += float64(len(t.legs))
			if t.root > 0 {
				slowestShare += float64(slowest) / float64(t.root)
			}
			continue
		}
		switch o.kind {
		case opObserve:
			tsSelf += nonneg(us(t.root-t.engine) - dAdm)
			admWait += dAdm
			// Registry.ObserveSegment and verdict assembly stay in the
			// engine's self time.
			polObs += nonneg(us(t.engine-t.journal) - dDisc - dRefresh - dRelObs)
			discObs += dDisc
			refresh += dRefresh
			release += dRelObs
		case opCheck:
			tsSelf += nonneg(us(t.root) - dCheckFP)
			polChk += nonneg(dCheckFP - dQuery)
			discQuery += dQuery
		case opUpload:
			tsSelf += nonneg(us(t.root) - dUpload)
			polChk += nonneg(dUpload - dRelUpl)
			release += dRelUpl
		}
	}

	e2e := meanLatencyUS(traced.g)
	sum := (queue + fp + client + tsSelf + admWait + polObs + polChk + discObs + discQuery + release + refresh + routeSelf + legsWall) / n
	if !s.routed {
		sum += journal / n // on routed the journal runs inside the legs
	}
	perOp := func(x float64) float64 { return x / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Scraped counters over the window; a family absent under every
	// spelling fails the run rather than reading 0.
	delta := make(map[string]float64)
	for _, key := range []string{"wal.records", "wal.bytes", "wal.fsyncs", "admission.folds", "admission.shed"} {
		a, err := traced.scrapeAfter.need(key)
		if err != nil {
			return nil, err
		}
		b, err := traced.scrapeBefore.need(key)
		if err != nil {
			return nil, err
		}
		delta[key] = a - b
	}
	fsyncP99, err := traced.scrapeAfter.need("wal.fsync_p99_s")
	if err != nil {
		return nil, err
	}

	m := map[string]metric{
		"gen.queue_us":                {perOp(queue), "us"},
		"gen.late_p99_ms":             {traced.g.latePct(0.99), "ms"},
		"gen.offered_rps":             {n / w.seconds, "1/s"},
		"gen.completed_rps":           {float64(traced.g.completed) / traced.g.wall.Seconds(), "1/s"},
		"fingerprint.compute_us":      {perOp(fp), "us"},
		"fingerprint.hashes_per_op":   {perOp(hashes), "count"},
		"tagserver.client_us":         {perOp(client), "us"},
		"tagserver.self_us":           {perOp(tsSelf), "us"},
		"tagserver.allocs_per_op":     {plain.mallocsPerOp, "count"},
		"tagserver.req_bytes":         {perOp(reqBytes), "B"},
		"tagserver.resp_bytes":        {perOp(respBytes), "B"},
		"admission.wait_us":           {perOp(admWait), "us"},
		"admission.folds":             {delta["admission.folds"], "count"},
		"admission.shed":              {delta["admission.shed"], "count"},
		"policy.observe_self_us":      {perOp(polObs), "us"},
		"policy.check_self_us":        {perOp(polChk), "us"},
		"disclosure.observe_us":       {perOp(discObs), "us"},
		"disclosure.cache_hit_ratio":  {ratio(cacheHits, nObs), "ratio"},
		"disclosure.query_us":         {perOp(discQuery), "us"},
		"disclosure.sources_per_op":   {ratio(sourcesSum, nQuery), "count"},
		"index.distinct_hashes":       {float64(traced.distinct), "count"},
		"index.bytes_per_hash":        {traced.heapPerHash, "B"},
		"tdm.check_release_us":        {perOp(release), "us"},
		"tdm.refresh_implicit_us":     {perOp(refresh), "us"},
		"store.journal_us":            {perOp(journal), "us"},
		"wal.fsyncs_per_write":        {ratio(delta["wal.fsyncs"], delta["wal.records"]), "ratio"},
		"wal.fsync_p99_us":            {fsyncP99 * 1e6, "us"},
		"wal.bytes_per_write":         {ratio(delta["wal.bytes"], delta["wal.records"]), "B"},
		"replication.catchup_ms":      {ms(traced.catchup), "ms"},
		"replication.lag_records_max": {float64(traced.lagMax), "count"},
		"partition.route_self_us":     {ratio(routeSelf, routedOps), "us"},
		"partition.legs_per_op":       {ratio(legs, routedOps), "count"},
		"partition.leg_us":            {ratio(legSum, legs), "us"},
		"partition.legs_wall_us":      {ratio(legsWall, routedOps), "us"},
		"partition.slowest_leg_share": {ratio(slowestShare, routedOps), "ratio"},
		"trace.e2e_mean_us":           {e2e, "us"},
		"trace.overhead_pct":          {100 * (meanServiceUS(traced.g) - meanServiceUS(plain.g)) / meanServiceUS(plain.g), "%"},
		"trace.sum_gap_pct":           {100 * (e2e - sum) / e2e, "%"},
	}
	return m, nil
}

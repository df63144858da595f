package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/lsds/browserflow/internal/dataset"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/segment"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wTyping = "typing"
	wPaste  = "paste_check"
	wRouted = "routed"
)

// The policy every daemon of every workload enforces: confidential wiki
// pages carry tag tw, docs is public, violations block.
const policyJSON = `{
  "services": [
    {"name": "wiki", "privilege": ["tw"], "confidentiality": ["tw"]},
    {"name": "docs"}
  ],
  "mode": "enforcing"
}
`

const (
	confTag    = "tw"
	keystroke  = 20 // characters typed between two observes
	numConns   = 2  // capped at nproc by main
	warmupOps  = 150
	routedSkew = 1 << 31 // ring split point: p0 owns keys below it
)

// spec is one workload's fixed shape. Rates are the offered load of the
// measured window; LAYERS.md gives each against the seed build's
// saturation on a 2-core machine.
type spec struct {
	name       string
	rate       float64 // offered user actions per second
	editors    int     // typing editors (0: no observes)
	checkFrac  float64 // share of arrivals that are paste checks
	uploadFrac float64 // share of arrivals that are upload checks
	replica    bool    // one streaming replica behind the primary
	routed     bool    // bfproxy over two partition primaries
	ebooks     bool    // corpus-scale e-book preload (>= minCorpusHashes)
	wikiParas  int     // confidential wiki paragraphs preloaded (small corpora)
	docsParas  int     // public docs paragraphs preloaded (small corpora)
}

// minCorpusHashes is the paste_check index size: the `make corpus` gate,
// about 45 MB of index, far past a 4 MiB L2.
const minCorpusHashes = 1_000_000

var specs = map[string]spec{
	wTyping: {name: wTyping, rate: 400, editors: 36, replica: true, wikiParas: 1500, docsParas: 300},
	wPaste:  {name: wPaste, rate: 2000, checkFrac: 0.8, uploadFrac: 0.2, ebooks: true},
	wRouted: {name: wRouted, rate: 250, editors: 24, checkFrac: 0.25, routed: true, wikiParas: 400, docsParas: 100},
}

type opKind int

const (
	opObserve opKind = iota
	opCheck
	opUpload
)

func (k opKind) String() string {
	return [...]string{"observe", "check", "upload"}[k]
}

// rule is the generator's ground truth for one verdict.
type rule int

const (
	ruleNone  rule = iota // no claim (partial W1 prefixes, light edits)
	ruleAllow             // must be allow
	ruleFlag              // must be flagged with confTag (and name source, if set)
)

type expect struct {
	rule   rule
	source segment.ID // required among the verdict's sources when set
}

// op is one user action. Text is fingerprinted on the client at send
// time; the daemons receive only hashes.
type op struct {
	at      time.Duration // intended send time, from the window start
	kind    opKind
	conn    int
	service string
	seg     segment.ID
	text    string
	dest    string
	expect  expect
}

// preloadItem is one corpus paragraph observed during set-up.
type preloadItem struct {
	service string
	seg     segment.ID
	hashes  []uint32
}

// workload is everything one run sends, derived from the seed alone.
type workload struct {
	spec    spec
	seconds float64 // measured window
	preload []preloadItem
	warmup  []op
	ops     []op
	// corpusHashes counts distinct preloaded hashes.
	corpusHashes int
}

// para is one corpus paragraph with its segment and text.
type para struct {
	seg  segment.ID
	text string
}

func mustFP(text string) []uint32 {
	fp, err := fingerprint.Compute(text, fingerprint.DefaultConfig())
	if err != nil {
		panic(err) // DefaultConfig always validates
	}
	return fp.Hashes()
}

// freshGen returns a text generator whose words are random letter strings,
// so fresh text shares no n-gram with the corpus or with another editor's
// fresh text.
type freshGen struct{ rng *rand.Rand }

func (g freshGen) paragraph() string {
	var sb strings.Builder
	sentences := 4 + g.rng.Intn(4)
	for s := 0; s < sentences; s++ {
		words := 8 + g.rng.Intn(8)
		for w := 0; w < words; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			n := 4 + g.rng.Intn(6)
			for i := 0; i < n; i++ {
				sb.WriteByte(byte('a' + g.rng.Intn(26)))
			}
		}
		sb.WriteString(". ")
	}
	return strings.TrimSpace(sb.String())
}

// buildWorkload generates the corpus, the warm-up and the measured ops
// of one workload from seed.
func buildWorkload(s spec, seed int64, seconds float64) (*workload, error) {
	w := &workload{spec: s, seconds: seconds}
	rng := rand.New(rand.NewSource(seed))
	var wiki, docs []para
	if s.ebooks {
		wiki, docs = ebookCorpus(seed)
	} else {
		gen := dataset.NewTextGen(seed*7919+1, 4000)
		for i := 0; i < s.wikiParas; i++ {
			wiki = append(wiki, para{segment.ID(fmt.Sprintf("wiki/s%d/page%d#p%d", seed, i/8, i%8)), gen.Paragraph(4, 8)})
		}
		for i := 0; i < s.docsParas; i++ {
			docs = append(docs, para{segment.ID(fmt.Sprintf("docs/s%d/pub%d#p%d", seed, i/8, i%8)), gen.Paragraph(4, 8)})
		}
	}
	seen := make(map[uint32]struct{})
	for _, group := range []struct {
		service string
		paras   []para
	}{{"wiki", wiki}, {"docs", docs}} {
		for _, p := range group.paras {
			hs := mustFP(p.text)
			for _, h := range hs {
				seen[h] = struct{}{}
			}
			w.preload = append(w.preload, preloadItem{group.service, p.seg, hs})
		}
	}
	w.corpusHashes = len(seen)
	if s.ebooks && w.corpusHashes < minCorpusHashes {
		return nil, fmt.Errorf("corpus has %d distinct hashes, want >= %d", w.corpusHashes, minCorpusHashes)
	}

	fresh := freshGen{rand.New(rand.NewSource(seed*31 + 7))}
	lightGen := dataset.NewTextGen(seed*131+3, 4000)

	// Warm-up: fresh-text observes on their own segments plus (where the
	// workload checks) fresh-text checks; every verdict must be allow.
	for i := 0; i < warmupOps; i++ {
		o := op{conn: i % numConns, expect: expect{rule: ruleAllow}}
		if s.editors == 0 || i%4 == 3 {
			o.kind, o.text, o.dest = opCheck, fresh.paragraph(), "docs"
		} else {
			o.kind, o.service, o.text = opObserve, "docs", fresh.paragraph()
			o.seg = segment.ID(fmt.Sprintf("docs/s%d/warm%d#p0", seed, i))
		}
		w.warmup = append(w.warmup, o)
	}

	// Measured window: Poisson arrivals at the fixed offered rate.
	eds := newEditors(s, seed, wiki, fresh, lightGen, rng)
	var t float64
	for arrival := 0; ; arrival++ {
		t += rng.ExpFloat64() / s.rate
		if t >= seconds {
			break
		}
		at := time.Duration(t * float64(time.Second))
		x := rng.Float64()
		var o op
		switch {
		case x < s.checkFrac:
			o = pasteCheck(rng, wiki, docs, fresh, lightGen)
			o.conn = arrival % numConns
		case x < s.checkFrac+s.uploadFrac:
			o = uploadCheck(rng, wiki, docs)
			o.conn = arrival % numConns
		default:
			o = eds.next(rng)
		}
		o.at = at
		w.ops = append(w.ops, o)
	}
	if len(w.ops) == 0 {
		return nil, fmt.Errorf("no ops in a %.1fs window at %.0f/s", seconds, s.rate)
	}
	return w, nil
}

// ebookCorpus splits 30 generated e-books (about 1.09M distinct hashes)
// into confidential (wiki) and public (docs) paragraphs, alternating by
// book.
func ebookCorpus(seed int64) (wiki, docs []para) {
	cfg := dataset.EbookConfig{Seed: seed, Books: 30, MinBytes: 600 << 10, MaxBytes: 700 << 10}
	books := dataset.GenerateEbooks(cfg)
	for b, book := range books {
		service := "wiki"
		if b%2 == 1 {
			service = "docs"
		}
		for i, text := range book.Paragraphs {
			seg := segment.ID(fmt.Sprintf("%s/s%d/book%d#p%d", service, seed, b, i))
			if service == "wiki" {
				wiki = append(wiki, para{seg, text})
			} else {
				docs = append(docs, para{seg, text})
			}
		}
	}
	return wiki, docs
}

// pasteCheck builds one /v1/check of pasted text: a verbatim confidential
// copy, a light edit of one, a public copy or fresh text, in equal shares.
func pasteCheck(rng *rand.Rand, wiki, docs []para, fresh freshGen, light *dataset.TextGen) op {
	o := op{kind: opCheck, dest: "docs"}
	switch rng.Intn(4) {
	case 0:
		p := wiki[rng.Intn(len(wiki))]
		o.text, o.expect = p.text, expect{rule: ruleFlag, source: p.seg}
	case 1:
		o.text = light.LightEdit(wiki[rng.Intn(len(wiki))].text, 0.1)
	case 2:
		if len(docs) == 0 {
			o.text, o.expect = fresh.paragraph(), expect{rule: ruleAllow}
			break
		}
		o.text, o.expect = docs[rng.Intn(len(docs))].text, expect{rule: ruleAllow}
	default:
		o.text, o.expect = fresh.paragraph(), expect{rule: ruleAllow}
	}
	return o
}

// uploadCheck builds one /v1/upload of a tracked segment to docs: a wiki
// segment must be flagged by its own label, a docs segment allowed.
func uploadCheck(rng *rand.Rand, wiki, docs []para) op {
	o := op{kind: opUpload, dest: "docs"}
	if rng.Intn(2) == 0 || len(docs) == 0 {
		o.seg, o.expect = wiki[rng.Intn(len(wiki))].seg, expect{rule: ruleFlag}
	} else {
		o.seg, o.expect = docs[rng.Intn(len(docs))].seg, expect{rule: ruleAllow}
	}
	return o
}

// flow is one of Fig. 12's editing workflows.
type flow int

const (
	flowW1 flow = iota // type a copy of a confidential wiki paragraph
	flowW2             // type fresh text
	flowW3             // type a lightly edited copy, word by word
)

type editor struct {
	id     int
	flow   flow
	paras  int // paragraphs started
	seg    segment.ID
	text   string
	pos    int
	source segment.ID
}

// editors hands out keystroke observes. Each editor owns one docs
// paragraph at a time and types it in keystroke batches; its observes go
// over one connection, in order.
type editors struct {
	spec  spec
	seed  int64
	list  []*editor
	wiki  []para
	pool  [2][]int // wiki paragraph indexes by ring half (routed)
	fresh freshGen
	light *dataset.TextGen
}

func newEditors(s spec, seed int64, wiki []para, fresh freshGen, light *dataset.TextGen, rng *rand.Rand) *editors {
	e := &editors{spec: s, seed: seed, wiki: wiki, fresh: fresh, light: light}
	for i := 0; i < s.editors; i++ {
		e.list = append(e.list, &editor{id: i, flow: flow(i % 3)})
	}
	perm := rng.Perm(len(wiki))
	for _, i := range perm {
		h := half(wiki[i].seg)
		e.pool[h] = append(e.pool[h], i)
	}
	return e
}

// half reports which partition of the routed ring owns seg.
func half(seg segment.ID) int {
	if segment.Key(seg) >= routedSkew {
		return 1
	}
	return 0
}

// source takes an unused wiki paragraph, from the other ring half than
// seg on the routed workload so every W1 source is cross-partition.
func (e *editors) source(seg segment.ID) (para, bool) {
	h := 0
	if e.spec.routed {
		h = 1 - half(seg)
	} else if len(e.pool[0]) == 0 {
		h = 1
	}
	if len(e.pool[h]) == 0 {
		return para{}, false
	}
	i := e.pool[h][0]
	e.pool[h] = e.pool[h][1:]
	return e.wiki[i], true
}

func (e *editors) next(rng *rand.Rand) op {
	ed := e.list[rng.Intn(len(e.list))]
	if ed.pos >= len(ed.text) {
		e.start(ed)
	}
	ed.pos += keystroke
	if ed.pos > len(ed.text) {
		ed.pos = len(ed.text)
	}
	o := op{
		kind:    opObserve,
		conn:    ed.id % numConns,
		service: "docs",
		seg:     ed.seg,
		text:    ed.text[:ed.pos],
	}
	switch {
	case ed.flow == flowW2:
		o.expect = expect{rule: ruleAllow}
	case ed.flow == flowW1 && ed.pos == len(ed.text):
		o.expect = expect{rule: ruleFlag, source: ed.source}
	}
	return o
}

// start gives ed its next paragraph. A flow that runs out of unused wiki
// sources falls back to fresh text, so ground truth never depends on two
// editors copying the same source.
func (e *editors) start(ed *editor) {
	ed.paras++
	ed.pos = 0
	ed.seg = segment.ID(fmt.Sprintf("docs/s%d/ed%d#p%d", e.seed, ed.id, ed.paras))
	ed.source = ""
	if ed.flow != flowW2 {
		if src, ok := e.source(ed.seg); ok {
			ed.source = src.seg
			ed.text = src.text
			if ed.flow == flowW3 {
				ed.text = e.light.LightEdit(src.text, 0.1)
			}
			return
		}
		ed.flow = flowW2
	}
	ed.text = e.fresh.paragraph()
}

// percentile returns the q-quantile (0..1) of sorted durations by the
// nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/globalindex"
	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Layers are package names: a span or a counter belongs to the package
// whose public seam it was taken at.
const (
	layerBench       = "bench"
	layerCore        = "core"
	layerLattice     = "lattice"
	layerDHT         = "dht"
	layerGlobalIndex = "globalindex"
	layerRanking     = "ranking"
	layerHDK         = "hdk"
	layerQDI         = "qdi"
)

// layerOfType maps a wire message type to the package that owns it.
func layerOfType(t uint8) string {
	switch {
	case t >= 0x01 && t <= 0x0f:
		return layerDHT
	case t >= 0x10 && t <= 0x2f:
		return layerGlobalIndex
	case t >= 0x30 && t <= 0x3f:
		return layerQDI
	case t >= 0x40 && t <= 0x4f:
		return layerRanking
	case t >= 0x50 && t <= 0x5f:
		return layerCore
	}
	return "transport"
}

// layerOfSpan maps the program's own span names to their package.
var layerOfSpan = map[string]string{
	"search": layerCore, "merge": layerCore, "present": layerCore,
	"probe": layerLattice, "resolve": layerDHT, "qdi": layerQDI,
	"hedge": layerGlobalIndex, "attempt": layerGlobalIndex, "topk-refine": layerGlobalIndex,
}

// spanRec is one finished span as written to the trace file.
type spanRec struct {
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent_id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is a live bench-side span. The zero parent marks a trace's root.
type span struct {
	tr   *tracer
	rec  spanRec
	kind int // of the trace's root operation
	// sampled spans are recorded, with their children and the program's
	// own tree; an unsampled root only tells the decorators its kind.
	sampled bool
	// prog is the program's span that was active where this span began;
	// once the program's tree is grafted, it becomes the parent.
	prog *telemetry.Span
}

type spanKey struct{}

// Operation kinds, taken from the root span a call runs under.
const (
	kindQuery = iota
	kindPublish
	kindBackground
	numKinds
)

func kindOf(root string) int {
	switch root {
	case "query":
		return kindQuery
	case "publish_batch":
		return kindPublish
	}
	return kindBackground
}

// typeStats accumulates calls of one message type.
type typeStats struct {
	count atomic.Int64
	ns    atomic.Int64
}

// durations is a concurrency-safe bag of timings in nanoseconds.
type durations struct {
	mu sync.Mutex
	ns []int64
}

func (d *durations) add(ns int64) {
	d.mu.Lock()
	d.ns = append(d.ns, ns)
	d.mu.Unlock()
}

// values returns the timings in the given unit (ns per unit), sorted.
func (d *durations) values(per float64) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]float64, len(d.ns))
	for i, v := range d.ns {
		out[i] = float64(v) / per
	}
	sort.Float64s(out)
	return out
}

// tracer holds everything the traced run records: bench-side spans, the
// program's own span trees awaiting grafting, and what the decorators
// at the transport, dispatcher and storage seams counted. Nothing is
// recorded unless a timed, traced phase is running.
type tracer struct {
	on       atomic.Bool
	inClosed atomic.Bool // the closed-loop phase is running: sample its queries
	epoch    time.Time
	nextID   atomic.Uint64

	mu     sync.Mutex
	spans  []spanRec
	grafts []graft
	inProg map[uint64]*telemetry.Span // bench span -> the program span it began inside
	phase_ string

	client     [numKinds][256]typeStats // remote calls, by the operation they ran under
	served     [256]typeStats           // remotely requested handler runs
	callNs     [numKinds]durations      // remote call times
	engine     map[string]*durations    // storage method -> times
	engineByPh map[string]map[string]int
	walWritten atomic.Int64
}

// graft is a program span tree waiting to be hung under a bench span.
type graft struct {
	under *span
	tree  *telemetry.Span
}

func newTracer() *tracer {
	return &tracer{
		epoch:      time.Now(),
		inProg:     make(map[uint64]*telemetry.Span),
		engine:     make(map[string]*durations),
		engineByPh: make(map[string]map[string]int),
	}
}

// phase names the timed phase now running ("" between phases) and turns
// recording on or off with it.
func (t *tracer) phase(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase_ = name
	t.mu.Unlock()
	t.inClosed.Store(name == phaseClosed)
	t.on.Store(name != "" && name != phaseBaseline)
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) newSpan(ctx context.Context, parent *span, name, layer string) (context.Context, *span) {
	s := &span{tr: t, prog: telemetry.SpanFromContext(ctx)}
	s.rec = spanRec{ID: t.nextID.Add(1), Name: name, Layer: layer, Start: t.now()}
	if parent != nil {
		s.rec.Trace, s.rec.Parent, s.kind, s.sampled = parent.rec.Trace, parent.rec.ID, parent.kind, parent.sampled
	} else {
		s.rec.Trace, s.kind, s.sampled = s.rec.ID, kindOf(name), true
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// closedSampling is the share of closed-loop queries whose spans are
// kept: that phase sends tens of thousands, and one in ten is plenty.
const closedSampling = 10

// begin starts the root span of one operation; nil when not recording.
// seq is the operation's number within its generator, which decides
// whether a closed-loop query is sampled.
func (t *tracer) begin(ctx context.Context, name string, seq int) (context.Context, *span) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	ctx, s := t.newSpan(ctx, nil, name, layerBench)
	s.sampled = !t.inClosed.Load() || seq%closedSampling == 0
	return ctx, s
}

// traced reports whether the operation's spans are being kept.
func (s *span) traced() bool { return s != nil && s.sampled }

// child starts a span under the one ctx carries; nil when there is none.
func (t *tracer) child(ctx context.Context, name, layer string) (context.Context, *span) {
	parent, _ := ctx.Value(spanKey{}).(*span)
	if !parent.traced() {
		return ctx, nil
	}
	return t.newSpan(ctx, parent, name, layer)
}

// finish ends the span. A search response's own span tree is kept for
// grafting under it when the trace is written, off the timed path.
func (s *span) finish(resp *core.SearchResponse) {
	if !s.traced() {
		return
	}
	s.rec.End = s.tr.now()
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.rec)
	if s.prog != nil {
		s.tr.inProg[s.rec.ID] = s.prog
	}
	if resp != nil && resp.Trace != nil && resp.Trace.Spans != nil {
		s.tr.grafts = append(s.tr.grafts, graft{under: s, tree: resp.Trace.Spans})
	}
	s.tr.mu.Unlock()
}

// --- decorators -------------------------------------------------------

// tracedEndpoint times every remote call a peer makes, by message type
// and by the kind of operation the call runs under, and records it as a
// span of that operation.
type tracedEndpoint struct {
	*transport.TCP
	tr *tracer
}

func (e *tracedEndpoint) Call(ctx context.Context, to transport.Addr, msgType uint8, body []byte) (uint8, []byte, error) {
	if !e.tr.on.Load() || to == e.Addr() {
		return e.TCP.Call(ctx, to, msgType, body)
	}
	kind := kindBackground
	parent, _ := ctx.Value(spanKey{}).(*span)
	var s *span
	if parent != nil {
		kind = parent.kind
		if parent.sampled {
			_, s = e.tr.newSpan(ctx, parent, callName(msgType), layerOfType(msgType))
		}
	}
	start := time.Now()
	rt, resp, err := e.TCP.Call(ctx, to, msgType, body)
	ns := time.Since(start).Nanoseconds()
	s.finish(nil)
	st := &e.tr.client[kind][msgType]
	st.count.Add(1)
	st.ns.Add(ns)
	e.tr.callNs[kind].add(ns)
	return rt, resp, err
}

func callName(t uint8) string {
	const hex = "0123456789abcdef"
	return "call 0x" + string([]byte{hex[t>>4], hex[t&15]})
}

// endpoint wraps a peer's TCP endpoint for the traced run.
func (t *tracer) endpoint(ep *transport.TCP) transport.Endpoint {
	if t == nil {
		return ep
	}
	return &tracedEndpoint{TCP: ep, tr: t}
}

// handler wraps a peer's dispatcher entry point: the time a request
// from another peer spends being handled. Calls a peer makes to itself
// never reach the transport and are left out on both sides.
func (t *tracer) handler(self *atomic.Value, h transport.Handler) transport.Handler {
	if t == nil {
		return h
	}
	return func(ctx context.Context, from transport.Addr, msgType uint8, body []byte) (uint8, []byte, error) {
		if !t.on.Load() {
			return h(ctx, from, msgType, body)
		}
		if addr, _ := self.Load().(transport.Addr); from == addr {
			return h(ctx, from, msgType, body)
		}
		start := time.Now()
		rt, resp, err := h(ctx, from, msgType, body)
		st := &t.served[msgType]
		st.count.Add(1)
		st.ns.Add(time.Since(start).Nanoseconds())
		return rt, resp, err
	}
}

// tracedEngine times the storage engine's hot methods and follows the
// write-ahead log's growth across compaction resets.
type tracedEngine struct {
	*storage.Engine
	tr      *tracer
	mu      sync.Mutex
	lastWAL int64
}

// observe starts timing one engine call and returns what to defer: it
// records the call under method and, for a mutation, how far the log grew.
func (e *tracedEngine) observe(method string, mutation bool) func() {
	t := e.tr
	if !t.on.Load() {
		return func() {}
	}
	start := time.Now()
	return func() {
		ns := time.Since(start).Nanoseconds()
		t.mu.Lock()
		d := t.engine[method]
		if d == nil {
			d = &durations{}
			t.engine[method] = d
		}
		ph := t.engineByPh[t.phase_]
		if ph == nil {
			ph = make(map[string]int)
			t.engineByPh[t.phase_] = ph
		}
		ph[method]++
		t.mu.Unlock()
		d.add(ns)
		if !mutation {
			return
		}
		size := e.Engine.WALSize()
		e.mu.Lock()
		if size >= e.lastWAL {
			t.walWritten.Add(size - e.lastWAL)
		} else {
			t.walWritten.Add(size) // the log was reset by a compaction
		}
		e.lastWAL = size
		e.mu.Unlock()
	}
}

func (e *tracedEngine) Put(key string, list *postings.List, bound int) int {
	defer e.observe("Put", true)()
	return e.Engine.Put(key, list, bound)
}

func (e *tracedEngine) Append(key string, list *postings.List, bound, announcedDF int) int {
	defer e.observe("Append", true)()
	return e.Engine.Append(key, list, bound, announcedDF)
}

func (e *tracedEngine) AdoptReplica(key string, list *postings.List, approxDF int64) int {
	defer e.observe("AdoptReplica", true)()
	return e.Engine.AdoptReplica(key, list, approxDF)
}

func (e *tracedEngine) Remove(key string) bool {
	defer e.observe("Remove", true)()
	return e.Engine.Remove(key)
}

func (e *tracedEngine) Get(key string, maxResults int) (*postings.List, bool, bool) {
	defer e.observe("Get", false)()
	return e.Engine.Get(key, maxResults)
}

func (e *tracedEngine) GetPrefix(key string, offset, limit int) globalindex.PrefixResult {
	defer e.observe("GetPrefix", false)()
	return e.Engine.GetPrefix(key, offset, limit)
}

// engineFor wraps a peer's durable engine for the traced run.
func (t *tracer) engineFor(e *storage.Engine) globalindex.StorageEngine {
	return &tracedEngine{Engine: e, tr: t, lastWAL: e.WALSize()}
}

// --- writing the trace and reading it back ----------------------------

// progView is the JSON shape telemetry.Span marshals to.
type progView struct {
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	DurationUS int64      `json:"duration_us"`
	Children   []progView `json:"children"`
}

// graftAll hangs every kept program span tree under its bench span and
// re-parents the bench-side call spans that began inside one of the
// program's spans. A telemetry.Span exposes its start time only through
// its JSON form, so each tree is walked in both forms at once: pointers
// for identity, JSON for times.
func (t *tracer) graftAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make(map[*telemetry.Span]uint64)
	for _, g := range t.grafts {
		raw, err := json.Marshal(g.tree)
		if err != nil {
			return err
		}
		var view progView
		if err := json.Unmarshal(raw, &view); err != nil {
			return err
		}
		t.graft(g.under.rec.Trace, g.under.rec.ID, g.tree, view, ids)
	}
	t.grafts = nil
	for i := range t.spans {
		if id, ok := ids[t.inProg[t.spans[i].ID]]; ok {
			t.spans[i].Parent = id
		}
	}
	return nil
}

func (t *tracer) graft(trace, parent uint64, s *telemetry.Span, v progView, ids map[*telemetry.Span]uint64) {
	layer, ok := layerOfSpan[v.Name]
	if !ok {
		layer = layerCore
	}
	start := v.Start.Sub(t.epoch).Nanoseconds()
	rec := spanRec{Trace: trace, ID: t.nextID.Add(1), Parent: parent, Name: v.Name, Layer: layer,
		Start: start, End: start + v.DurationUS*1000}
	t.spans = append(t.spans, rec)
	ids[s] = rec.ID
	children := s.Children()
	for i := 0; i < len(children) && i < len(v.Children); i++ {
		t.graft(trace, rec.ID, children[i], v.Children[i], ids)
	}
}

// write writes every span of the run to trace_<workload>.json in the
// output directory and returns the path. Call graftAll first.
func (t *tracer) write(workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(outDir, "trace_"+workload+".json")
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Children may
// overlap one another (a fan-out) and may outlive their parent (a hedged
// attempt that lost); both are handled by clipping and merging.
func selfTimes(spans []spanRec) map[uint64]int64 {
	children := make(map[uint64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, reach), min(k.End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

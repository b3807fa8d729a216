package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/kvstore"
	"switchboard/internal/kvstore/replica"
	"switchboard/internal/obs/span"
)

// The traced run keeps every span in memory: the program's own route →
// controller.* → kv.* spans (through an extra sink on each node's tracer),
// the benchmark's spans around each request it sends, and a timing wrapper's
// spans around the replication hooks. Route spans carry no inbound trace ID,
// so requests are joined to them by route, node and time containment; each
// connection carries one request at a time, which makes the join unique in
// all but rare overlaps, resolved by the call ID controller spans carry.

// tagged is one collected span and the node that exported it (-1 for the
// replication wrapper, which runs inside the store).
type tagged struct {
	node int
	rec  span.Record
}

// collector is the traced run's in-memory sink. It records only while on,
// so one run can measure the same step with and without it.
type collector struct {
	on  atomic.Bool
	ids atomic.Uint64
	mu  sync.Mutex
	got []tagged // guarded by mu
}

func (c *collector) add(node int, rec span.Record) {
	c.mu.Lock()
	c.got = append(c.got, tagged{node, rec})
	c.mu.Unlock()
}

// nextID mints span IDs for spans the benchmark records itself; the high
// bit keeps them apart from the program tracers' IDs in practice.
func (c *collector) nextID() span.ID { return span.ID(c.ids.Add(1) | 1<<63) }

// sink is node's view of the collector.
func (c *collector) sink(node int) span.Sink { return nodeSink{c, node} }

type nodeSink struct {
	c    *collector
	node int
}

func (s nodeSink) ExportSpan(rec span.Record) {
	if s.c.on.Load() {
		s.c.add(s.node, rec)
	}
}

// timedRepl is the traced run's replicator: it delegates to the primary and
// records how long each hook took — the wait for the total mutation order,
// the log append, and the wait for the standby's ack. One write's three
// spans share a trace ID, and its append span carries the written key, so
// the join can tell concurrent writes apart.
type timedRepl struct {
	p *replica.Primary
	c *collector

	mu    sync.Mutex
	cur   span.ID            // guarded by mu; the write holding the order
	bySeq map[uint64]span.ID // guarded by mu; appended writes awaiting their ack
}

func (t *timedRepl) record(write span.ID, name string, start time.Time, attrs span.Attrs) {
	if write != 0 && t.c.on.Load() {
		t.c.add(-1, span.Record{Trace: write, Span: t.c.nextID(), Name: name, Start: start, Duration: time.Since(start), Attrs: attrs}) //sblint:allow nondeterminism -- timing the replication hook
	}
}

// take returns the write holding the order and clears it; it runs before
// the order is released, so no other write can have begun.
func (t *timedRepl) take() span.ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.cur
	t.cur = 0
	return w
}

func (t *timedRepl) Begin() {
	s := time.Now() //sblint:allow nondeterminism -- timing the replication hook
	t.p.Begin()
	if !t.c.on.Load() {
		return
	}
	w := t.c.nextID()
	t.mu.Lock()
	t.cur = w
	t.mu.Unlock()
	t.record(w, "replica.order_wait", s, nil)
}

func (t *timedRepl) Append(args []string) uint64 {
	w := t.take()
	s := time.Now() //sblint:allow nondeterminism -- timing the replication hook
	seq := t.p.Append(args)
	if w == 0 {
		return seq
	}
	t.mu.Lock()
	if t.bySeq == nil {
		t.bySeq = map[uint64]span.ID{}
	}
	t.bySeq[seq] = w
	t.mu.Unlock()
	var key string
	if len(args) > 1 {
		key = args[1]
	}
	t.record(w, "replica.append", s, span.Attrs{{Key: "key", Value: key}})
	return seq
}

func (t *timedRepl) Abort() {
	t.take()
	t.p.Abort()
}

func (t *timedRepl) WaitAck(seq uint64) error {
	s := time.Now() //sblint:allow nondeterminism -- timing the replication hook
	err := t.p.WaitAck(seq)
	t.mu.Lock()
	w := t.bySeq[seq]
	delete(t.bySeq, seq)
	t.mu.Unlock()
	t.record(w, "replica.ack_wait", s, nil)
	return err
}

func (t *timedRepl) ServeSync(args []string, conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
	t.p.ServeSync(args, conn, r, w)
}

var _ kvstore.Replicator = (*timedRepl)(nil)

// serverRecords drains the store's bounded traced-command ring while a step
// runs, so no observation is overwritten before it is read.
type serverRecords struct {
	mu   sync.Mutex
	seen map[kvstore.TraceRecord]bool // guarded by mu
	stop chan struct{}
	done chan struct{}
}

func pollServer(srv *kvstore.Server) *serverRecords {
	s := &serverRecords{seen: map[kvstore.TraceRecord]bool{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			s.take(srv)
			select {
			case <-s.stop:
				s.take(srv)
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *serverRecords) take(srv *kvstore.Server) {
	recs := srv.TraceRecords()
	s.mu.Lock()
	for _, r := range recs {
		s.seen[r] = true
	}
	s.mu.Unlock()
}

// finish stops polling and returns the observations grouped by trace ID.
func (s *serverRecords) finish() map[string][]time.Duration {
	close(s.stop)
	<-s.done
	out := map[string][]time.Duration{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := range s.seen {
		out[r.Trace] = append(out[r.Trace], r.Dur)
	}
	return out
}

// joined is one request's span tree: the benchmark's client span at the
// root, the entry node's route span under it, the owner's route span under
// that when the request was proxied, then the program's and the replication
// wrapper's spans.
type joined struct {
	op      *op
	proxied bool
	spans   []span.Record
	parent  []int                    // index of each span's parent in spans; -1 for the client span
	layers  map[string]time.Duration // self time per layer
	kvRTT   []time.Duration
	server  []time.Duration
	replica map[string][]time.Duration
}

// layerOf names the layer a span's self time belongs to.
func layerOf(name string, entryHop bool) string {
	switch {
	case strings.HasPrefix(name, "loadgen "):
		return "unattributed"
	case strings.HasPrefix(name, "http "):
		if entryHop {
			return "shard.hop"
		}
		return "httpapi"
	case name == "controller.start" || name == "controller.freeze":
		return "controller.place"
	case name == "controller.persist":
		return "controller.persist_wait"
	case strings.HasPrefix(name, "kv."):
		return "kvstore"
	case strings.HasPrefix(name, "replica."):
		return name
	}
	return "other"
}

// joinTrace assembles each sent request's span tree. owner maps a call to
// the node that owns it (the entry node when unsharded); entry maps a
// connection to the node it enters.
func joinTrace(ops []*op, origin time.Time, got []tagged, entry func(conn int) int, owner func(call uint64, entry int) int,
	server map[string][]time.Duration, ids func() span.ID) []*joined {
	byTrace := map[span.ID][]span.Record{}
	roots := map[string][]*cand{} // by node and route name
	writes := map[span.ID]*replWrite{}
	key := func(node int, name string) string { return fmt.Sprint(node, "|", name) }
	for _, t := range got {
		switch {
		case t.node < 0:
			w := writes[t.rec.Trace]
			if w == nil {
				w = &replWrite{}
				writes[t.rec.Trace] = w
			}
			w.recs = append(w.recs, t.rec)
		case t.rec.Parent == 0 && strings.HasPrefix(t.rec.Name, "http POST /v1/call/"):
			k := key(t.node, t.rec.Name)
			roots[k] = append(roots[k], &cand{rec: t.rec})
			byTrace[t.rec.Trace] = append(byTrace[t.rec.Trace], t.rec)
		default:
			byTrace[t.rec.Trace] = append(byTrace[t.rec.Trace], t.rec)
		}
	}
	for _, rs := range roots {
		sort.Slice(rs, func(i, j int) bool { return rs[i].rec.Start.Before(rs[j].rec.Start) })
	}
	byCall := map[string][]*replWrite{} // by the call ID in the written key
	for _, w := range writes {
		for _, r := range w.recs {
			if k := r.Attrs.Get("key"); k != "" {
				if i := strings.LastIndex(k, "call:"); i >= 0 {
					call := k[i+len("call:"):]
					byCall[call] = append(byCall[call], w)
				}
			}
		}
	}
	callOf := func(tr span.ID) string {
		for _, r := range byTrace[tr] {
			if v := r.Attrs.Get("call"); v != "" {
				return v
			}
		}
		return ""
	}
	// pick claims the route span of node that lies inside [lo, hi],
	// preferring one whose trace names the call.
	pick := func(node int, name string, lo, hi time.Time, call uint64) *cand {
		var first *cand
		want := fmt.Sprint(call)
		for _, r := range roots[key(node, name)] {
			if r.used || r.rec.Start.Before(lo) || r.rec.End().After(hi) {
				continue
			}
			if c := callOf(r.rec.Trace); c == want {
				r.used = true
				return r
			} else if c == "" && first == nil {
				first = r
			}
		}
		if first != nil {
			first.used = true
		}
		return first
	}

	var out []*joined
	for _, o := range ops {
		if !o.ok() {
			continue
		}
		cs, ce := origin.Add(o.sent), origin.Add(o.done)
		name := "http POST " + o.path
		en := entry(o.conn)
		ra := pick(en, name, cs, ce, o.call)
		if ra == nil {
			continue
		}
		j := &joined{op: o, replica: map[string][]time.Duration{}}
		tr := ids()
		client := span.Record{Trace: tr, Span: ids(), Name: "loadgen POST " + o.path, Start: cs, Duration: ce.Sub(cs)}
		client.Attrs = span.Attrs{{Key: "call", Value: fmt.Sprint(o.call)}}
		j.add(client, -1)
		// adopt re-roots one route span's trace under spans[parent].
		adopt := func(r *cand, parent int) {
			rr := r.rec
			rr.Trace, rr.Parent = tr, j.spans[parent].Span
			at := map[span.ID]int{r.rec.Span: len(j.spans)} // index in spans
			j.add(rr, parent)
			pending := append([]span.Record(nil), byTrace[r.rec.Trace]...)
			for progress := true; progress; {
				progress = false
				rest := pending[:0]
				for _, s := range pending {
					if s.Span == r.rec.Span {
						continue
					}
					p, ok := at[s.Parent]
					if !ok {
						rest = append(rest, s)
						continue
					}
					at[s.Span] = len(j.spans)
					s.Trace = tr
					j.add(s, p)
					progress = true
					if strings.HasPrefix(s.Name, "kv.") {
						j.kvRTT = append(j.kvRTT, s.Duration)
						j.adoptReplica(byCall[fmt.Sprint(o.call)], at[s.Span])
					}
				}
				pending = rest
			}
			j.server = append(j.server, server[r.rec.Trace.String()]...)
		}
		adopt(ra, 0)
		if on := owner(o.call, en); on != en {
			j.proxied = true
			if rb := pick(on, name, ra.rec.Start, ra.rec.End(), o.call); rb != nil {
				adopt(rb, 1)
			}
		}
		out = append(out, j)
	}
	return out
}

// add appends rec under spans[parent] (-1: rec is the root).
func (j *joined) add(rec span.Record, parent int) {
	j.spans = append(j.spans, rec)
	j.parent = append(j.parent, parent)
}

// replWrite is one replicated write's hook spans.
type replWrite struct {
	recs []span.Record
	used bool
}

// adoptReplica attaches, under the kv span spans[at], the replicated write
// of the request's call whose hooks all ran inside that span.
func (j *joined) adoptReplica(writes []*replWrite, at int) {
	kv := j.spans[at]
	for _, w := range writes {
		inside := !w.used
		for _, r := range w.recs {
			inside = inside && !r.Start.Before(kv.Start) && !r.End().After(kv.End())
		}
		if !inside {
			continue
		}
		w.used = true
		for _, rec := range w.recs {
			rec.Trace, rec.Parent = kv.Trace, kv.Span
			j.add(rec, at)
			j.replica[rec.Name] = append(j.replica[rec.Name], rec.Duration)
		}
		return
	}
}

// cand is a collected span awaiting a join.
type cand struct {
	rec  span.Record
	used bool
}

// partition computes each layer's self time in the request and reconciles
// the layers with the client-observed latency. A span's self time is the
// part of its interval (clamped to the client's) that none of its
// descendants covers: "the span minus its children", in a form that stays
// non-negative when a child outlives its parent, as controller.persist
// outlives controller.start. The client span's self time is the
// unattributed row. The self times add up to the client latency exactly
// when no two spans on different branches of the tree overlap; a span
// joined into the wrong request overlaps the right one's, and the request
// fails when the sum is off by more than tol. A span outside the client
// interval fails outright.
func (j *joined) partition(tol time.Duration) error {
	cs, ce := j.spans[0].Start, j.spans[0].End()
	var cuts []time.Time
	for _, s := range j.spans {
		if s.Start.Before(cs.Add(-tol)) || s.End().After(ce.Add(tol)) {
			return fmt.Errorf("span %s lies outside its request", s.Name)
		}
		cuts = append(cuts, clampT(s.Start, cs, ce), clampT(s.End(), cs, ce))
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a].Before(cuts[b]) })
	j.layers = map[string]time.Duration{}
	var sum time.Duration
	var active []int
	for k := 1; k < len(cuts); k++ {
		seg := cuts[k].Sub(cuts[k-1])
		if seg <= 0 {
			continue
		}
		mid := cuts[k-1].Add(seg / 2)
		active = active[:0]
		for i, s := range j.spans {
			if !mid.Before(s.Start) && mid.Before(s.End()) {
				active = append(active, i)
			}
		}
		for _, i := range active {
			if !j.coveredBelow(i, active) {
				j.layers[layerOf(j.spans[i].Name, i == 1 && j.proxied)] += seg
				sum += seg
			}
		}
	}
	if d := sum - ce.Sub(cs); d > tol || d < -tol {
		return fmt.Errorf("layers sum to %v, request took %v: spans on different branches overlap", sum, ce.Sub(cs))
	}
	return nil
}

// coveredBelow reports whether one of the active spans descends from span i.
func (j *joined) coveredBelow(i int, active []int) bool {
	for _, a := range active {
		for p := j.parent[a]; p >= 0; p = j.parent[p] {
			if p == i {
				return true
			}
		}
	}
	return false
}

func clampT(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

// writeSpans writes the joined trees in the span JSONL encoding that
// cmd/sbtrace reads.
func writeSpans(path string, js []*joined) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	exp := span.NewJSONLExporter(f)
	for _, j := range js {
		for _, s := range j.spans {
			exp.ExportSpan(s)
		}
	}
	return exp.Close()
}

// controllerStats folds every controller's counters.
func controllerStats(ctrls []*controller.Controller) controller.Stats {
	var st controller.Stats
	for _, c := range ctrls {
		st.Accumulate(c.Stats())
	}
	return st
}

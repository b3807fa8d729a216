package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/kvstore"
	"switchboard/internal/kvstore/replica"
	"switchboard/internal/obs/span"
)

// callRun is one call workload's state across set-up, the timed ladder, the
// drain phase and the output checks.
type callRun struct {
	w      *workload
	seed   int64
	f      *fleet
	bp     *bootPlan
	stream *stream
	conns  []*conn
	admin  []*conn // one per node, for the drain phase
	check  *kvstore.Client

	mu    sync.Mutex
	calls map[uint64]*callLog // what the system acknowledged, per call
	live  map[uint64]bool     // started and not yet ended, as acked
}

// callLog is what a call's acknowledged requests promise the store holds.
type callLog struct {
	started, configured, ended bool
	config                     string
}

// checkReply validates a reply: an end is acknowledged, and a start or
// config names a valid DC under its own name (none is failed while traffic
// runs: the drain phase quiesces it first).
func (r *callRun) checkReply(o *op, reply []byte) error {
	if o.kind == controller.EventEnd {
		var v struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(reply, &v); err != nil || !v.OK {
			return fmt.Errorf("%w: end reply %q", errCheck, reply)
		}
		return nil
	}
	var v struct {
		DC     int    `json:"dc"`
		DCName string `json:"dc_name"`
	}
	if err := json.Unmarshal(reply, &v); err != nil {
		return fmt.Errorf("%w: %s reply %q: %v", errCheck, o.path, reply, err)
	}
	dcs := r.bp.world.DCs()
	if v.DC < 0 || v.DC >= len(dcs) || dcs[v.DC].Name != v.DCName {
		return fmt.Errorf("%w: %s reply names DC %d %q", errCheck, o.path, v.DC, v.DCName)
	}
	return nil
}

// note records what a step's acknowledged requests promise.
func (r *callRun) note(ops []*op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range ops {
		if !o.ok() {
			continue
		}
		cl := r.calls[o.call]
		if cl == nil {
			cl = &callLog{}
			r.calls[o.call] = cl
		}
		switch o.kind {
		case controller.EventStart:
			cl.started = true
			r.live[o.call] = true
		case controller.EventFreeze:
			cl.configured = true
			var v struct {
				Config string `json:"config"`
			}
			_ = json.Unmarshal(o.body, &v) // the benchmark encoded it
			cl.config = v.Config
		default:
			cl.ended = true
			delete(r.live, o.call)
		}
	}
}

// trafficCalls is how many calls of trace follow the history so that the
// whole ladder, with two retried steps, plus warm-up and the traced run's
// steps never runs out of requests. Every call is three requests: start,
// config and end.
func trafficCalls(w *workload, seconds float64) int {
	need, top := w.WarmRequests+2*w.TracedRequests, 0
	for i, rate := range w.Ladder {
		n := stepLen(rate, seconds*w.stepShare(i), w.tail())
		need += n
		top = max(top, n)
	}
	return (need+2*top)/3 + 1
}

// startCalls builds the fleet over a solved plan and warms it up.
func startCalls(w *workload, seed int64, h *history, bp *bootPlan, col *collector) (_ *callRun, err error) {
	r := &callRun{w: w, seed: seed, bp: bp, calls: map[uint64]*callLog{}, live: map[uint64]bool{}}
	r.stream = newStream(controller.BuildEvents(h.traffic, controller.DefaultFreeze), clientConns)
	h.traffic = nil // the stream holds what the requests need
	sink := func(int) span.Sink { return nil }
	if col != nil {
		sink = col.sink
	}
	switch w.Topology {
	case "sharded":
		r.f, err = startSharded(bp, w.Nodes, w.EntryNodes, seed, sink)
	case "replicated":
		var wrap func(p *replica.Primary) kvstore.Replicator
		if col != nil {
			wrap = func(p *replica.Primary) kvstore.Replicator { return &timedRepl{p: p, c: col} }
		}
		r.f, err = startReplicated(bp, seed, sink(0), wrap)
	default:
		r.f, err = startSingle(bp, seed, sink(0))
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	for i := 0; i < clientConns; i++ {
		r.conns = append(r.conns, newConn("http://"+r.f.entry[i%len(r.f.entry)].addr))
	}
	for _, n := range r.f.nodes {
		r.admin = append(r.admin, newConn("http://"+n.addr))
	}
	if r.check, err = kvstore.DialOptions(r.f.storeLn.Addr().String(), kvOptions(seed+900, nil)); err != nil {
		return nil, err
	}
	return r, r.warm()
}

// close stops the fleet and the clients.
func (r *callRun) close() {
	for _, c := range append(r.conns, r.admin...) {
		c.close()
	}
	if r.check != nil {
		_ = r.check.Close()
	}
	r.f.stop()
}

// warm pushes the replication log past its capacity (replicated topology)
// and sends warm-up traffic at the hi rate, unmeasured.
func (r *callRun) warm() error {
	if r.f.primary != nil {
		if err := pushLog(r.f.storeLn.Addr().String(), r.f.primary, r.w.WarmLogSeq, r.seed); err != nil {
			return err
		}
	}
	if r.w.WarmRequests == 0 {
		return nil
	}
	_, err := r.runStep("warm", r.w.Hi, r.w.WarmRequests, 1000)
	return err
}

// pushLog writes through the replicated store from several clients at once
// until the log head reaches target.
func pushLog(addr string, p *replica.Primary, target uint64, seed int64) error {
	const writers, batch = 64, 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := kvstore.DialOptions(addr, kvOptions(seed+int64(1000+i), nil))
			if err != nil {
				errs[i] = err
				return
			}
			defer func() { _ = c.Close() }()
			cmds := make([][]string, batch)
			for k := 0; p.LastSeq() < target; k++ {
				for b := range cmds {
					cmds[b] = []string{"HSET", "perfbench:warm:" + strconv.Itoa((k*batch+b)%512), strconv.Itoa(i), strconv.Itoa(k)}
				}
				if _, _, err := c.Pipeline(cmds); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("pushing the replication log: %w", err)
		}
	}
	return nil
}

// runStep sends the stream's next n requests at rate. A request still
// unsent two seconds after the step's last one was due is abandoned.
func (r *callRun) runStep(name string, rate float64, n int, stepIdx int64) (*step, error) {
	rng := rand.New(rand.NewSource(r.seed*1000003 + stepIdx))
	ops, err := r.stream.take(n, rate, rng)
	if err != nil {
		return nil, err
	}
	s := &step{name: name, rate: rate, ops: ops, end: ops[len(ops)-1].due}
	origin := time.Now() //sblint:allow nondeterminism -- open-loop schedule origin
	runOps(context.Background(), ops, r.conns, origin, s.end+2*time.Second, r.checkReply)
	s.origin = origin
	r.note(ops)
	return s, nil
}

// ladder runs the timed steps: lo and hi always, then each higher rate
// while every step so far has passed. afterHi runs between the hi step and
// the rest, at a stream position that does not depend on how far the
// ladder climbs. It returns each rung's deciding attempt and, apart, the
// first attempts of the rungs it retried.
func (r *callRun) ladder(s *suite, seconds float64, afterHi func() error) (steps []*step, stats []stepStats, retried []*step, err error) {
	for i, rate := range r.w.Ladder {
		if i > 1 && !stats[len(stats)-1].Pass {
			break
		}
		n := stepLen(rate, seconds*r.w.stepShare(i), r.w.tail())
		st, err := r.runStep("step-"+fmtRate(rate), rate, n, int64(i))
		if err != nil {
			return nil, nil, nil, err
		}
		sum := summarize(st, s.LatencyLimitMs, r.w.tail())
		if !sum.Pass && i > 1 {
			// One retry: a burst of interference from outside the
			// benchmark must not end the ladder; a rate the system cannot
			// sustain fails twice.
			retried = append(retried, st)
			if st, err = r.runStep("step-"+fmtRate(rate)+"-retry", rate, n, int64(100+i)); err != nil {
				return nil, nil, nil, err
			}
			sum = summarize(st, s.LatencyLimitMs, r.w.tail())
		}
		steps = append(steps, st)
		stats = append(stats, sum)
		if i == 1 {
			if err := afterHi(); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return steps, stats, retried, nil
}

// drainPhase fails the DC holding the most live calls on every node at once,
// times until every node has answered, and recovers it; drains times.
func (r *callRun) drainPhase(drains int) (walls []float64, drained, liveAtFail int, err error) {
	for k := 0; k < drains; k++ {
		dc, live, err := r.busiestDC()
		if err != nil {
			return nil, 0, 0, err
		}
		liveAtFail += live
		body := []byte(fmt.Sprintf(`{"dc":%d}`, dc))
		var wg sync.WaitGroup
		replies := make([][]byte, len(r.admin))
		errs := make([]error, len(r.admin))
		t0 := time.Now() //sblint:allow nondeterminism -- timing the drain
		for i, c := range r.admin {
			wg.Add(1)
			go func(i int, c *conn) {
				defer wg.Done()
				status, reply, err := c.post(context.Background(), "/v1/dc/fail", body)
				if err == nil && status != 200 {
					err = fmt.Errorf("dc fail: HTTP %d: %s", status, reply)
				}
				replies[i], errs[i] = reply, err
			}(i, c)
		}
		wg.Wait()
		walls = append(walls, time.Since(t0).Seconds()) //sblint:allow nondeterminism -- timing the drain
		for i, e := range errs {
			if e != nil {
				return nil, 0, 0, e
			}
			var v struct {
				Drained int `json:"drained"`
			}
			if err := json.Unmarshal(replies[i], &v); err != nil {
				return nil, 0, 0, fmt.Errorf("%w: dc fail reply %q", errCheck, replies[i])
			}
			drained += v.Drained
		}
		for _, c := range r.admin {
			if status, reply, err := c.post(context.Background(), "/v1/dc/recover", body); err != nil || status != 200 {
				return nil, 0, 0, fmt.Errorf("dc recover: HTTP %d %s: %v", status, reply, err)
			}
		}
	}
	return walls, drained, liveAtFail, nil
}

// busiestDC reads every live call's current DC from the store.
func (r *callRun) busiestDC() (dc, live int, err error) {
	r.mu.Lock()
	ids := make([]uint64, 0, len(r.live))
	for id := range r.live {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	cmds := make([][]string, len(ids))
	for i, id := range ids {
		cmds[i] = []string{"HGET", r.f.prefixOf(id) + "call:" + strconv.FormatUint(id, 10), "dc"}
	}
	counts := make([]int, len(r.bp.world.DCs()))
	if len(cmds) > 0 {
		replies, errs, err := r.check.Pipeline(cmds)
		if err != nil {
			return 0, 0, err
		}
		for i := range replies {
			if errs[i] != nil {
				return 0, 0, fmt.Errorf("%w: live call %d has no dc: %v", errCheck, ids[i], errs[i])
			}
			x, err := strconv.Atoi(fmt.Sprint(replies[i]))
			if err != nil || x < 0 || x >= len(counts) {
				return 0, 0, fmt.Errorf("%w: live call %d dc %v", errCheck, ids[i], replies[i])
			}
			counts[x]++
		}
	}
	for x, c := range counts {
		if c > counts[dc] {
			dc = x
		}
	}
	return dc, len(ids), nil
}

// verifyStore checks every acknowledged transition is readable under the
// owning shard's prefix, and returns how many calls failed the check.
func (r *callRun) verifyStore() (int, error) {
	r.mu.Lock()
	ids := make([]uint64, 0, len(r.calls))
	for id := range r.calls {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	bad := 0
	const batch = 512
	for lo := 0; lo < len(ids); lo += batch {
		part := ids[lo:min(lo+batch, len(ids))]
		cmds := make([][]string, len(part))
		for i, id := range part {
			cmds[i] = []string{"HGETALL", r.f.prefixOf(id) + "call:" + strconv.FormatUint(id, 10)}
		}
		replies, errs, err := r.check.Pipeline(cmds)
		for i, e := range errs {
			if e != nil {
				replies[i] = nil
			}
		}
		if err != nil {
			return 0, err
		}
		for i, id := range part {
			cl := r.calls[id]
			h := hashOf(replies[i])
			okDC := true
			if cl.started {
				x, err := strconv.Atoi(h["dc"])
				okDC = err == nil && x >= 0 && x < len(r.bp.world.DCs())
			}
			if !okDC || (cl.configured && h["config"] != cl.config) || (cl.ended && h["state"] != "ended") {
				bad++
			}
		}
	}
	return bad, nil
}

// hashOf decodes an HGETALL reply given as a flat field/value list.
func hashOf(v any) map[string]string {
	out := map[string]string{}
	switch x := v.(type) {
	case map[string]string:
		return x
	case []any:
		for i := 0; i+1 < len(x); i += 2 {
			out[fmt.Sprint(x[i])] = fmt.Sprint(x[i+1])
		}
	case []string:
		for i := 0; i+1 < len(x); i += 2 {
			out[x[i]] = x[i+1]
		}
	}
	return out
}

// ownerNode is the node that leads a call's shard (node i prefers shard i).
func (r *callRun) ownerNode(call uint64, entry int) int {
	if r.f.ring == nil {
		return entry
	}
	return r.f.ring.Lookup(call)
}

package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/kvstore"
)

// planSetup generates the history, solves the workload's plan, then
// generates the traffic. A bootstrap-plan workload solves once, as set-up;
// a daily-plan workload solves back to back for seconds, as measured work.
func planSetup(w *workload, seed int64, seconds float64) (*history, *planResult, error) {
	h, err := genHistory(w.HistoryDays, w.CallsPerDay)
	if err != nil {
		return nil, nil, err
	}
	budget := 0.0
	if w.Plan == "daily" {
		budget = seconds
	}
	pr, err := runPlans(w, h, budget)
	if err != nil {
		return nil, nil, err
	}
	return h, pr, h.genTraffic(seed, trafficCalls(w, seconds))
}

// planChecks runs the plan checks and counts those made and those failed:
// every repeat solve must agree with the first (when the budget allowed
// one), the allocation must serve its demand within capacity, and the cost
// and mean ACL must match the values recorded for the workload's history.
func planChecks(w *workload, pr *planResult) (attempted, failed int, notes []string) {
	attempted = len(pr.walls) + 1 // serves, recorded figures, one per repeat
	if !pr.same {
		failed++
		notes = append(notes, "check: plan repeats disagree")
	}
	if err := checkServes(pr.plan); err != nil {
		failed++
		notes = append(notes, "check: "+err.Error())
	}
	if !agree(pr.plan.cost(), w.PlanCost) || !agree(pr.plan.meanACL(), w.PlanMeanACLMs) {
		failed++
		notes = append(notes, fmt.Sprintf("check: plan cost %.9g / mean ACL %.9g ms, recorded %.9g / %.9g",
			pr.plan.cost(), pr.plan.meanACL(), w.PlanCost, w.PlanMeanACLMs))
	}
	notes = append(notes, fmt.Sprintf("plan: %d solve(s), cost %.9g, mean ACL %.9g ms",
		len(pr.walls), pr.plan.cost(), pr.plan.meanACL()))
	return attempted, failed, notes
}

// agree reports whether two plan figures agree within the LP's tolerance.
func agree(a, b float64) bool { return math.Abs(a-b) <= planTol*math.Max(1, math.Abs(b)) }

// replicaConverged waits for the standby to hold everything the primary
// logged.
func replicaConverged(f *fleet) error {
	if f.primary == nil {
		return nil
	}
	err := waitFor("standby convergence", 10*time.Second, func() bool {
		return f.standby.LastSeq() == f.primary.LastSeq()
	})
	if err != nil {
		return fmt.Errorf("%w: standby at %d, primary at %d", errCheck, f.standby.LastSeq(), f.primary.LastSeq())
	}
	return nil
}

// outputChecks runs the store, replication and call checks shared by both
// runs and returns how many failed.
func (r *callRun) outputChecks() (failed int, notes []string, err error) {
	bad, err := r.verifyStore()
	if err != nil {
		return 0, nil, err
	}
	failed += bad
	notes = append(notes, fmt.Sprintf("check: %d acknowledged calls read back, %d wrong", len(r.calls), bad))
	if err := replicaConverged(r.f); err != nil {
		failed++
		notes = append(notes, "check: "+err.Error())
	} else if r.f.primary != nil {
		notes = append(notes, fmt.Sprintf("check: standby converged at seq %d", r.f.primary.LastSeq()))
	}
	return failed, notes, nil
}

// timedRun measures the end-to-end metrics.
func timedRun(s *suite, w *workload, seed int64, seconds float64) (*result, []string, error) {
	t0 := time.Now() //sblint:allow nondeterminism -- timing set-up
	h, pr, err := planSetup(w, seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	setup := time.Since(t0).Seconds() //sblint:allow nondeterminism -- timing set-up
	if w.Plan == "daily" {
		for _, p := range pr.walls {
			setup -= p
		}
	}
	t1 := time.Now() //sblint:allow nondeterminism -- timing set-up
	r, err := startCalls(w, seed, h, pr.plan, nil)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	setup += time.Since(t1).Seconds() //sblint:allow nondeterminism -- timing set-up
	// Set-up's garbage (the trace, the LP) is collected before timing, so
	// the timed phase pays only for its own.
	runtime.GC()
	// The heap is sampled over the fixed part of the run, lo and hi, not
	// the climb, whose length depends on the max rate, nor the plan solves,
	// whose peak depends on where the collections happen to land.
	heap := sampleHeap()
	var walls []float64
	var drained, liveAtFail int
	var heapMB float64
	steps, stats, retried, err := r.ladder(s, seconds, func() (err error) {
		heapMB = heap.mb()
		walls, drained, liveAtFail, err = r.drainPhase(w.Drains)
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	notes := []string{fmt.Sprintf("drain: %d drains moved %d of %d live calls, walls %v", len(walls), drained, liveAtFail, walls)}
	for _, st := range stats {
		res.Attempted += st.OK + st.Failed
		res.Failed += st.Failed
		notes = append(notes, fmt.Sprintf("step: %+v", st))
	}
	// A retried step's first attempt decides nothing, but its requests were
	// sent and checked like any other.
	for _, st := range retried {
		sum := summarize(st, s.LatencyLimitMs, w.tail())
		res.Attempted += sum.OK + sum.Failed
		res.Failed += sum.Failed
		notes = append(notes, fmt.Sprintf("step (retried): %+v", sum))
	}
	for _, st := range append(steps, retried...) {
		for _, o := range st.ops {
			if o.err != nil {
				notes = append(notes, fmt.Sprintf("failed: call %d %s: %v", o.call, o.path, o.err))
				break
			}
		}
	}
	a, f, n := planChecks(w, pr)
	res.Failed += f
	res.Attempted += a + len(walls)*len(r.admin)
	notes = append(notes, n...)
	f, n, err = r.outputChecks()
	if err != nil {
		return nil, nil, err
	}
	res.Failed += f
	res.Attempted += len(r.calls)
	notes = append(notes, n...)
	res.Correct = res.Failed == 0

	lo, hi := stats[0], stats[1]
	tailNote := func(st stepStats) string {
		note := fmt.Sprintf("p%g at %g req/s", w.TailPct, st.Rate)
		if !st.TailOK {
			note += "; fewer than 10 samples beyond it"
		}
		return note
	}
	res.shown = map[string]metric{}
	res.shown["call_p50_ms.lo"] = metric{Value: lo.P50, Unit: "ms", Samples: lo.OK}
	res.shown["call_tail_ms.lo"] = metric{Value: lo.Tail, Unit: "ms", Samples: lo.OK, Note: tailNote(lo)}
	res.shown["call_p50_ms.hi"] = metric{Value: hi.P50, Unit: "ms", Samples: hi.OK}
	res.shown["call_tail_ms.hi"] = metric{Value: hi.Tail, Unit: "ms", Samples: hi.OK, Note: tailNote(hi)}
	res.shown["max_rate_rps"] = metric{Value: maxRate(stats), Unit: "req/s", Samples: len(stats),
		Note: "ladder steps run"}
	var drainS float64
	for _, x := range walls {
		drainS += x
	}
	res.shown["dc_drain_s"] = metric{Value: drainS, Unit: "s", Samples: len(walls), Note: "total over the phase's DC failures"}
	res.shown["plan_s"] = metric{Value: median(pr.walls), Unit: "s", Samples: len(pr.walls), Note: "median; " + w.Plan + " plan"}
	res.Metrics["setup_s"] = metric{Value: setup, Unit: "s", Samples: 1}
	res.Metrics["heap_peak_mb"] = metric{Value: heapMB, Unit: "MB", Samples: 1, Note: "peak live heap over the lo and hi steps"}
	return res, notes, nil
}

// tracedRun measures the per-layer metrics: the lo step once untraced and
// once with every span kept, then the drain phase once, then the offline
// stage layer by layer.
func tracedRun(s *suite, w *workload, seed int64, seconds float64) (*result, []string, error) {
	h, err := genHistory(w.HistoryDays, w.CallsPerDay)
	if err != nil {
		return nil, nil, err
	}
	pr, err := runPlans(w, h, 0)
	if err != nil {
		return nil, nil, err
	}
	if err := h.genTraffic(seed, trafficCalls(w, seconds)); err != nil {
		return nil, nil, err
	}
	col := &collector{}
	r, err := startCalls(w, seed, h, pr.plan, col)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string, samples int, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples, Note: note}
	}
	putPct := func(name string, xs []float64) { putTail(put, name, xs, w.tail()) }

	plain, err := r.runStep("lo-untraced", w.Lo, w.TracedRequests, 0)
	if err != nil {
		return nil, nil, err
	}
	plainSt := summarize(plain, s.LatencyLimitMs, w.tail())

	var logSeq uint64
	if r.f.primary != nil {
		logSeq = r.f.primary.LastSeq()
	}
	opsBefore := r.f.store.OpsServed()
	smp := sampleFleet(r)
	srv := pollServer(r.f.store)
	col.on.Store(true)
	tr, err := r.runStep("lo-traced", w.Lo, w.TracedRequests, 1)
	col.on.Store(false)
	server := srv.finish()
	lagMax, journalMax := smp.finish()
	if err != nil {
		return nil, nil, err
	}
	opsServed := r.f.store.OpsServed() - opsBefore
	trSt := summarize(tr, s.LatencyLimitMs, w.tail())
	_, drained, liveAtFail, err := r.drainPhase(1)
	if err != nil {
		return nil, nil, err
	}

	// Join and reconcile.
	col.mu.Lock()
	got := append([]tagged(nil), col.got...)
	col.mu.Unlock()
	entry := func(conn int) int { return conn % len(r.f.entry) }
	js := joinTrace(tr.ops, tr.origin, got, entry, r.ownerNode, server, col.nextID)
	tol := time.Duration(s.ReconcileToleranceUs * float64(time.Microsecond))
	var notes []string
	reconcileFailed := 0
	for _, j := range js {
		if err := j.partition(tol); err != nil {
			reconcileFailed++
			if reconcileFailed <= 3 {
				notes = append(notes, fmt.Sprintf("reconcile: call %d %s: %v", j.op.call, j.op.path, err))
			}
		}
	}
	res.Attempted = trSt.OK + trSt.Failed + len(js)
	res.Failed = trSt.Failed + reconcileFailed
	f, n, err := r.outputChecks()
	if err != nil {
		return nil, nil, err
	}
	res.Failed += f
	res.Attempted += len(r.calls)
	notes = append(notes, n...)

	dir := filepath.Join(".bench_build", "traces")
	spansPath := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeSpans(spansPath, js); err != nil {
		return nil, nil, err
	}
	notes = append(notes, fmt.Sprintf("spans: %s (%d requests; render with: go run ./cmd/sbtrace -f %s)", spansPath, len(js), spansPath))
	notes = append(notes, layerTable(js)...)

	// loadgen
	put("loadgen.late_ms.tail", trSt.LateTail, "ms", trSt.OK+trSt.Failed, fmt.Sprintf("p%g", w.TailPct))
	put("loadgen.call_tail_ms.lo", plainSt.Tail, "ms", plainSt.OK, fmt.Sprintf("p%g, untraced lo step", w.TailPct))
	put("loadgen.sent", float64(trSt.OK+trSt.Failed), "count", 1, "")
	put("loadgen.ok", float64(trSt.OK), "count", 1, "")
	put("loadgen.failed", float64(trSt.Failed), "count", 1, "")
	put("loadgen.queued_end", float64(trSt.QueuedEnd), "count", 1, "")
	put("trace.joined_ratio", ratio(len(js), trSt.OK), "ratio", trSt.OK, "requests joined to program spans")
	putPct("loadgen.unattributed_us", layerSamples(js, "unattributed", nil))

	// httpapi
	putPct("httpapi.self_us", layerSamples(js, "httpapi", nil))
	routes := map[string]int{}
	status5xx := 0
	for _, t := range got {
		if t.node < 0 || t.rec.Parent != 0 || !strings.HasPrefix(t.rec.Name, "http POST /v1/call/") {
			continue
		}
		routes[strings.TrimPrefix(t.rec.Name, "http POST /v1/call/")]++
		if code, _ := strconv.Atoi(t.rec.Attrs.Get("http.status")); code >= 500 {
			status5xx++
		}
	}
	for _, route := range []string{"start", "config", "end"} {
		put("httpapi.requests."+route, float64(routes[route]), "count", 1, "route spans, all nodes")
	}
	put("httpapi.status_5xx", float64(status5xx), "count", 1, "")

	// shard
	proxied := 0
	for _, o := range tr.ops {
		if r.ownerNode(o.call, entry(o.conn)) != entry(o.conn) {
			proxied++
		}
	}
	put("shard.proxied_ratio", ratio(proxied, len(tr.ops)), "ratio", len(tr.ops), "base: requests")
	putPct("shard.hop_us", layerSamples(js, "shard.hop", nil))
	ex50, exTail, exN := proxyExtra(plain, r, entry, w.tail())
	put("shard.proxy_extra_us.p50", ex50, "us", exN, "proxied minus local, untraced lo step")
	put("shard.proxy_extra_us.tail", exTail, "us", exN, "proxied minus local, untraced lo step")
	lookupNs, hopsExhausted := 0.0, 0.0
	if r.f.ring != nil {
		lookupNs = timeLookup(r.f.ring.Lookup)
		for _, nd := range r.f.nodes {
			hopsExhausted += float64(nd.mgr.Metrics().ProxyHopsExhausted.Value())
		}
	}
	put("shard.lookup_ns", lookupNs, "ns", 1<<20, "Ring.Lookup")
	put("shard.hops_exhausted", hopsExhausted, "count", 1, "")

	// controller
	isPlace := func(j *joined) bool { return j.op.path != "/v1/call/end" }
	putPct("controller.place_us", layerSamples(js, "controller.place", isPlace))
	putPct("controller.persist_wait_us", layerSamples(js, "controller.persist_wait", nil))
	var ctrls []*controller.Controller
	for _, nd := range r.f.nodes {
		ctrls = append(ctrls, nd.controllers()...)
	}
	st := controllerStats(ctrls)
	put("controller.migration_ratio", ratio(int(st.Migrated), int(st.Frozen)), "ratio", int(st.Frozen), "base: freezes")
	put("controller.planned_ratio", ratio(int(st.Frozen-st.Unplanned), int(st.Frozen)), "ratio", int(st.Frozen), "base: freezes")
	put("controller.drained", ratio(drained, liveAtFail), "ratio", liveAtFail, "base: live calls at fail")
	put("controller.degraded", float64(st.Degraded), "count", 1, "")
	put("controller.journal_max", float64(journalMax), "count", 1, "sampled")
	put("controller.fenced", float64(st.Fenced), "count", 1, "")

	// kvstore
	var rtt, srvDur []float64
	for _, j := range js {
		for _, d := range j.kvRTT {
			rtt = append(rtt, us(d))
		}
		for _, d := range j.server {
			srvDur = append(srvDur, us(d))
		}
	}
	putPct("kvstore.client_rtt_us", rtt)
	putPct("kvstore.server_us", srvDur)
	put("kvstore.writes_per_request", ratio(int(opsServed), trSt.OK), "ratio", trSt.OK, "store commands ÷ ok requests")
	var retries, redials int64
	for _, nd := range r.f.nodes {
		for _, c := range nd.closers {
			if kc, ok := c.(*kvstore.Client); ok {
				retries += kc.Retries()
				redials += kc.Redials()
			}
		}
	}
	put("kvstore.retries", float64(retries), "count", 1, "")
	put("kvstore.redials", float64(redials), "count", 1, "")

	// replica
	for _, hook := range []string{"order_wait", "append", "ack_wait"} {
		var xs []float64
		for _, j := range js {
			for _, d := range j.replica["replica."+hook] {
				xs = append(xs, us(d))
			}
		}
		putPct("replica."+hook+"_us", xs)
	}
	var ackTimeouts float64
	if r.f.replM != nil {
		ackTimeouts = float64(r.f.replM.AckTimeouts.Value())
	}
	put("replica.lag_max", float64(lagMax), "entries", 1, "sampled")
	put("replica.log_seq_at_start", float64(logSeq), "seq", 1, "must be >= 65536 when replicated")
	put("replica.ack_timeouts", ackTimeouts, "count", 1, "")

	// offline stage
	layers, again, err := planLayers(w)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted++
	if !samePlan(pr.plan, again) {
		res.Failed++
		notes = append(notes, "check: the plan solved again layer by layer differs from set-up's")
	}
	units := map[string]string{"forecast.fits": "count", "provision.scenarios": "count", "plan.cost": "cost", "plan.mean_acl_ms": "ms"}
	layerNotes := map[string]string{"provision.scenarios": "derived from provision's failure model, not counted"}
	for k, v := range layers {
		u := units[k]
		if u == "" {
			u = "s"
		}
		put(k, v, u, 1, layerNotes[k])
	}
	overhead := 0.0
	if plainSt.P50 > 0 {
		overhead = 100 * (trSt.P50 - plainSt.P50) / plainSt.P50
	}
	put("obs.trace_overhead_pct", overhead, "%", trSt.OK, "traced vs untraced lo-step p50")
	res.Correct = res.Failed == 0
	return res, notes, nil
}

// putTail records a sample's median and tail percentile, in µs.
func putTail(put func(string, float64, string, int, string), name string, xs []float64, tail float64) {
	sort.Float64s(xs)
	p50, _ := pct(xs, 0.5)
	t, ok := pct(xs, tail)
	note := fmt.Sprintf("tail is p%g", 100*tail)
	if !ok && len(xs) > 0 {
		note += "; fewer than 10 samples beyond it"
	}
	if len(xs) == 0 {
		note = "layer absent on this workload"
	}
	put(name+".p50", p50, "us", len(xs), note)
	put(name+".tail", t, "us", len(xs), note)
}

// layerSamples is each joined request's self time in a layer, in µs, over
// the requests keep selects that spent any time there.
func layerSamples(js []*joined, layer string, keep func(*joined) bool) []float64 {
	var xs []float64
	for _, j := range js {
		if keep != nil && !keep(j) {
			continue
		}
		if d, ok := j.layers[layer]; ok {
			xs = append(xs, us(d))
		}
	}
	return xs
}

// layerTable prints where the traced requests' time went, layer by layer:
// mean self time per request and its share of the mean client latency.
func layerTable(js []*joined) []string {
	sums := map[string]time.Duration{}
	var total time.Duration
	for _, j := range js {
		for l, d := range j.layers {
			sums[l] += d
		}
		total += j.op.done - j.op.sent
	}
	names := make([]string, 0, len(sums))
	for l := range sums {
		names = append(names, l)
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("layer self time over %d traced requests (client-observed mean %.1f us):", len(js), meanUs(total, len(js)))}
	for _, l := range names {
		out = append(out, fmt.Sprintf("  %-26s %9.1f us/request %6.1f%%", l, meanUs(sums[l], len(js)), 100*float64(sums[l])/float64(max(total, 1))))
	}
	return out
}

func meanUs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// proxyExtra is the proxied minus the local client-observed latency (send
// to reply) of one step, at p50 and the tail, in µs.
func proxyExtra(st *step, r *callRun, entry func(int) int, tail float64) (p50, tailUs float64, n int) {
	if r.f.ring == nil {
		return 0, 0, 0
	}
	var local, prox []float64
	for _, o := range st.ops {
		if !o.ok() {
			continue
		}
		d := us(o.done - o.sent)
		if r.ownerNode(o.call, entry(o.conn)) == entry(o.conn) {
			local = append(local, d)
		} else {
			prox = append(prox, d)
		}
	}
	sort.Float64s(local)
	sort.Float64s(prox)
	l50, _ := pct(local, 0.5)
	lt, _ := pct(local, tail)
	x50, _ := pct(prox, 0.5)
	xt, _ := pct(prox, tail)
	return x50 - l50, xt - lt, len(local) + len(prox)
}

// timeLookup times the shard ring's lookup in ns per call.
func timeLookup(lookup func(uint64) int) float64 {
	const n = 1 << 20
	sink := 0
	t0 := time.Now() //sblint:allow nondeterminism -- timing Ring.Lookup
	for i := uint64(0); i < n; i++ {
		sink += lookup(i * 0x9e3779b97f4a7c15)
	}
	el := time.Since(t0) //sblint:allow nondeterminism -- timing Ring.Lookup
	if sink < 0 {
		fmt.Fprintln(os.Stderr, sink)
	}
	return float64(el.Nanoseconds()) / n
}

// fleetSampler samples the replication lag and the controllers' journal
// depth while a step runs.
type fleetSampler struct {
	stop       chan struct{}
	done       chan struct{}
	mu         sync.Mutex
	lag        uint64
	journalMax int
}

func sampleFleet(r *callRun) *fleetSampler {
	s := &fleetSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			var lag uint64
			if r.f.primary != nil {
				lag = r.f.primary.Lag()
			}
			depth := 0
			for _, nd := range r.f.nodes {
				for _, c := range nd.controllers() {
					depth += c.JournalDepth()
				}
			}
			s.mu.Lock()
			s.lag = max(s.lag, lag)
			s.journalMax = max(s.journalMax, depth)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *fleetSampler) finish() (uint64, int) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lag, s.journalMax
}

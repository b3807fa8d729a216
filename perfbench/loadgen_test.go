package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"switchboard/internal/controller"
)

// fakeServer answers every call route with 200 after delay(call, kind) and
// logs what it saw.
type fakeServer struct {
	mu    sync.Mutex
	seen  []seenReq
	delay func(id uint64, path string) time.Duration
}

type seenReq struct {
	id         uint64
	path       string
	arrive, at time.Time // arrival and reply times
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	arrive := time.Now()
	b, _ := io.ReadAll(r.Body)
	var v struct {
		ID uint64 `json:"id"`
	}
	_ = json.Unmarshal(b, &v)
	if f.delay != nil {
		time.Sleep(f.delay(v.ID, r.URL.Path))
	}
	f.mu.Lock()
	f.seen = append(f.seen, seenReq{v.ID, r.URL.Path, arrive, time.Now()})
	f.mu.Unlock()
	_, _ = w.Write([]byte(`{"ok":true}`))
}

func startFake(t *testing.T, f *fakeServer) []*conn {
	t.Helper()
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	conns := []*conn{newConn(srv.URL), newConn(srv.URL)}
	t.Cleanup(func() {
		for _, c := range conns {
			c.close()
		}
	})
	return conns
}

// schedule builds ops due every gap on one connection.
func schedule(n int, gap time.Duration, conn int) []*op {
	var ops []*op
	for i := 0; i < n; i++ {
		ops = append(ops, &op{due: time.Duration(i+1) * gap, conn: conn, call: uint64(i + 1),
			kind: controller.EventStart, path: "/v1/call/start", body: []byte(`{"id":` + strconv.Itoa(i+1) + `}`)})
	}
	return ops
}

// A stall inflates the latency of every request queued behind it, because
// latency is counted from the due time, not from the send.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	f := &fakeServer{delay: func(id uint64, _ string) time.Duration {
		if id == 3 {
			return stall
		}
		return 0
	}}
	conns := startFake(t, f)
	ops := schedule(60, 5*time.Millisecond, 0)
	runOps(context.Background(), ops, conns, time.Now(), time.Minute, nil)
	for _, o := range ops {
		if !o.ok() {
			t.Fatalf("call %d failed: %v", o.call, o.err)
		}
	}
	// Call 4 was due 5 ms after call 3 but could only be sent once call 3's
	// reply arrived: it waited about stall-5ms, and that counts.
	if got := ops[3].latency(); got < stall-10*time.Millisecond {
		t.Fatalf("request behind the stall: latency %v, want about %v", got, stall-5*time.Millisecond)
	}
	if got := ops[3].done - ops[3].sent; got > stall/2 {
		t.Fatalf("request behind the stall: service time %v should be short", got)
	}
	// The queue drains: the last request is back to a short latency.
	if got := ops[59].latency(); got > stall/2 {
		t.Fatalf("last request latency %v; the backlog should have drained", got)
	}
}

// A call's next request is never sent before the reply to its previous one,
// even when both are due at once.
func TestPerCallOrder(t *testing.T) {
	f := &fakeServer{delay: func(uint64, string) time.Duration { return time.Millisecond }}
	conns := startFake(t, f)
	var ops []*op
	paths := []string{"/v1/call/start", "/v1/call/config", "/v1/call/end"}
	for call := uint64(1); call <= 8; call++ {
		for k, p := range paths {
			// Every request of every call is due at the same instant.
			ops = append(ops, &op{due: time.Millisecond, conn: connOf(call, 2), call: call,
				kind: controller.EventKind([]int{0, 2, 3}[k]), path: p, body: []byte(`{"id":` + strconv.FormatUint(call, 10) + `}`)})
		}
	}
	runOps(context.Background(), ops, conns, time.Now(), time.Minute, nil)
	byCall := map[uint64][]seenReq{}
	for _, s := range f.seen {
		byCall[s.id] = append(byCall[s.id], s)
	}
	for call, seen := range byCall {
		sort.Slice(seen, func(i, j int) bool { return seen[i].arrive.Before(seen[j].arrive) })
		if len(seen) != 3 {
			t.Fatalf("call %d: server saw %d requests", call, len(seen))
		}
		for k := range seen {
			if seen[k].path != paths[k] {
				t.Fatalf("call %d: request %d was %s, want %s", call, k, seen[k].path, paths[k])
			}
			if k > 0 && seen[k].arrive.Before(seen[k-1].at) {
				t.Fatalf("call %d: %s arrived before %s was answered", call, seen[k].path, seen[k-1].path)
			}
		}
	}
}

// Lateness is the generator's own delay: a request sent after its due time
// while its connection was free. Waiting for an earlier reply is latency.
func TestGeneratorLatenessReported(t *testing.T) {
	conns := startFake(t, &fakeServer{})
	ops := schedule(5, time.Millisecond, 0)
	// The schedule's origin lies 50 ms in the past: the generator starts
	// that late for the first request.
	runOps(context.Background(), ops, conns, time.Now().Add(-50*time.Millisecond), time.Minute, nil)
	if ops[0].late < 45*time.Millisecond {
		t.Fatalf("first request lateness %v, want about 49ms", ops[0].late)
	}
	for _, o := range ops[1:] {
		if o.late > 5*time.Millisecond {
			t.Fatalf("call %d queued behind a reply reported lateness %v", o.call, o.late)
		}
	}
	st := summarize(&step{rate: 1000, ops: ops, end: ops[len(ops)-1].due}, 250, 0.5)
	if st.LateTail <= 0 {
		t.Fatalf("step lateness not reported: %+v", st)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{{999, 0.99, false}, {1000, 0.99, true}, {99, 0.90, false}, {100, 0.90, true}, {20, 0.5, true}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := pct(xs, tc.q); ok != tc.want {
			t.Errorf("n=%d q=%g: reportable %v, want %v", tc.n, tc.q, ok, tc.want)
		}
	}
	if v, _ := pct([]float64{1, 2, 3, 4}, 0.5); v != 2 {
		t.Errorf("median of 1..4 by nearest rank = %g, want 2", v)
	}
	if stepLen(10, 1, 0.99) < 1000 || stepLen(10, 1, 0.90) < 100 || stepLen(5000, 2, 0.99) != 10000 {
		t.Errorf("stepLen does not leave ten samples beyond the tail")
	}
}

// synthStep builds a step of n requests at rate, each answered lat after it
// was sent; the last `queued` were still queued at the step's end and went
// out just after it.
func synthStep(rate float64, n int, lat time.Duration, queued int) *step {
	gap := time.Duration(float64(time.Second) / rate)
	s := &step{rate: rate, end: time.Duration(n) * gap}
	for i := 0; i < n; i++ {
		o := &op{due: time.Duration(i+1) * gap}
		o.sent = o.due
		if i >= n-queued {
			o.sent = s.end + time.Millisecond
		}
		o.done = o.sent + lat
		s.ops = append(s.ops, o)
	}
	return s
}

// The max rate is the highest step of the ascending ladder below the first
// step that breaks the latency limit or the backlog rule.
func TestMaxRateAndBacklogRule(t *testing.T) {
	const limit = 250
	ok1 := summarize(synthStep(100, 1200, time.Millisecond, 0), limit, 0.99)
	ok2 := summarize(synthStep(200, 1200, 2*time.Millisecond, 0), limit, 0.99)
	slow := summarize(synthStep(300, 1200, 300*time.Millisecond, 0), limit, 0.99)
	// 400 of 1200 requests at 400/s still queued at the end: exactly one
	// second's worth passes the backlog rule, one more fails it, whatever
	// their latency.
	edge := summarize(synthStep(400, 1200, time.Millisecond, 400), 1e9, 0.5)
	over := summarize(synthStep(400, 1200, time.Millisecond, 401), 1e9, 0.5)
	if !ok1.Pass || !ok2.Pass || slow.Pass {
		t.Fatalf("latency limit: passes %v %v %v, want true true false", ok1.Pass, ok2.Pass, slow.Pass)
	}
	if !edge.Pass || over.Pass || over.QueuedEnd != 401 {
		t.Fatalf("backlog rule: edge %v, over %v with %d queued", edge.Pass, over.Pass, over.QueuedEnd)
	}
	if got := maxRate([]stepStats{ok1, ok2, slow, ok1}); got != 200 {
		t.Fatalf("maxRate = %g, want 200 (a pass above a failed step does not count)", got)
	}
	if got := maxRate([]stepStats{slow, ok2}); got != 0 {
		t.Fatalf("maxRate = %g with a failing first step, want 0", got)
	}
	failed := synthStep(100, 1200, time.Millisecond, 0)
	for _, o := range failed.ops[:20] {
		o.err = errCheck
	}
	if st := summarize(failed, limit, 0.99); st.Pass || st.Failed != 20 {
		t.Fatalf("20 failed requests of 1200 must break the p99 limit: %+v", st)
	}
	abandoned := synthStep(100, 1200, time.Millisecond, 0)
	for _, o := range abandoned.ops[1180:] {
		o.sent, o.done = 0, 0
	}
	if st := summarize(abandoned, limit, 0.99); st.Pass || st.Unsent != 20 || st.QueuedEnd != 20 {
		t.Fatalf("20 abandoned requests of 1200 must break the p99 limit: %+v", st)
	}
}

// BENCHMARK.json at the repository root names the same workloads as
// workloads.json, whose ladders must be well formed.
func TestContractMatchesSuite(t *testing.T) {
	s, err := loadSuite()
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(s.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads.json %d", len(c.Workloads), len(s.Workloads))
	}
	for i, w := range s.Workloads {
		if c.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in workloads.json", i, c.Workloads[i].Name, w.Name)
		}
	}
}

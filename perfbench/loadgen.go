package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/model"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: below that the "percentile" is one or two outliers.
const minBeyond = 10

// op is one call-control request of the open-loop schedule. The schedule
// fills the request half; the worker that sends it fills the result half.
type op struct {
	due  time.Duration // when it is due, as an offset from the run origin
	conn int           // client connection that sends it
	call uint64
	kind controller.EventKind
	path string
	body []byte

	sent, done time.Duration // offsets from the origin; zero until sent
	// late is the generator's own lateness: the send time minus the later
	// of the due time and the previous reply on this connection. Waiting
	// for the server is latency, not lateness.
	late time.Duration
	err  error // transport error, non-2xx status, or a failed reply check
}

// ok reports whether the request was sent and acknowledged with a valid
// 2xx reply.
func (o *op) ok() bool { return o.sent > 0 && o.err == nil }

// unsent reports whether the request was still queued when its step was
// abandoned.
func (o *op) unsent() bool { return o.sent == 0 }

// latency is the request's latency counted from its due time, so a stall
// also counts against every request queued behind it.
func (o *op) latency() time.Duration { return o.done - o.due }

// callEvent is one request-bearing event of the replayed trace (joins have
// no HTTP route and are skipped).
type callEvent struct {
	kind    controller.EventKind
	call    uint64
	country string
	series  uint64
	config  model.CallConfig
}

// stream hands out the trace's events in order; call IDs are never reused,
// so a run can never replay a call the store already holds.
type stream struct {
	events []callEvent
	next   int
	conns  int
}

// newStream keeps the start, freeze and end events of the trace, in trace
// order.
func newStream(events []controller.Event, conns int) *stream {
	s := &stream{conns: conns}
	for _, e := range events {
		if e.Kind == controller.EventJoin {
			continue
		}
		s.events = append(s.events, callEvent{
			kind: e.Kind, call: e.CallID, country: string(e.Country),
			series: e.SeriesID, config: e.Config,
		})
	}
	return s
}

// connOf pins every request of a call to one connection: a connection
// carries one request at a time, so the call's next request can never be
// sent before the reply to its previous one.
func connOf(call uint64, conns int) int {
	x := call * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return int(x % uint64(conns))
}

// take schedules the next n events as Poisson arrivals at rate per second
// after the step's origin.
func (s *stream) take(n int, rate float64, rng *rand.Rand) ([]*op, error) {
	if s.next+n > len(s.events) {
		return nil, fmt.Errorf("trace exhausted: need %d more events, have %d", n, len(s.events)-s.next)
	}
	ops := make([]*op, 0, n)
	t := 0.0
	for _, e := range s.events[s.next : s.next+n] {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		o := &op{due: time.Duration(t), conn: connOf(e.call, s.conns), call: e.call, kind: e.kind}
		var v any
		switch e.kind {
		case controller.EventStart:
			o.path = "/v1/call/start"
			v = map[string]any{"id": e.call, "country": e.country, "series_id": e.series}
		case controller.EventFreeze:
			o.path = "/v1/call/config"
			v = map[string]any{"id": e.call, "config": e.config.Key()}
		default:
			o.path = "/v1/call/end"
			v = map[string]any{"id": e.call}
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		o.body = b
		ops = append(ops, o)
	}
	s.next += n
	return ops, nil
}

// conn is one client connection into the system under test.
type conn struct {
	base   string // "http://host:port"
	client *http.Client
}

// newConn returns a client that holds at most one connection to base.
func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends one JSON body and returns the status and reply.
func (c *conn) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// replyCheck validates a 2xx reply body.
type replyCheck func(o *op, reply []byte) error

// runOps sends ops open-loop: each connection's worker sends its requests in
// due order, sleeping until a request is due and sending at once when it is
// already late. Once a request is still unsent abandonAt after the origin,
// the worker gives up on it and the rest of its queue (a failed step; the
// backlog rule has already been broken). runOps returns when every worker
// has finished.
func runOps(ctx context.Context, ops []*op, conns []*conn, origin time.Time, abandonAt time.Duration, check replyCheck) {
	queues := make([][]*op, len(conns))
	for _, o := range ops {
		queues[o.conn] = append(queues[o.conn], o)
	}
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(c *conn, q []*op) {
			defer wg.Done()
			var prevDone time.Duration
			for _, o := range q {
				now := time.Since(origin) //sblint:allow nondeterminism -- open-loop pacing reads the real clock
				if now > abandonAt {
					return
				}
				waitUntil(origin, o.due, now)
				o.sent = time.Since(origin) //sblint:allow nondeterminism -- measuring real send time
				o.late = o.sent - max(o.due, prevDone)
				status, reply, err := c.post(ctx, o.path, o.body)
				o.done = time.Since(origin) //sblint:allow nondeterminism -- measuring real reply time
				prevDone = o.done
				switch {
				case err != nil:
					o.err = err
				case status < 200 || status > 299:
					o.err = fmt.Errorf("%s: HTTP %d: %s", o.path, status, bytes.TrimSpace(reply))
				case check != nil:
					o.err = check(o, reply)
				}
			}
		}(conns[i], queues[i])
	}
	wg.Wait()
}

// waitUntil returns once due (an offset from origin) has passed; now is the
// current offset. It sleeps in the kernel rather than on a runtime timer:
// an idle Go process rounds timer wake-ups up to a whole millisecond, which
// would count as the system's latency, and spinning instead would take a
// processor from the system under test.
func waitUntil(origin time.Time, due, now time.Duration) {
	for d := due - now; d > 0; d = due - time.Since(origin) { //sblint:allow nondeterminism -- open-loop pacing reads the real clock
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// step is one rate of the ladder, measured.
type step struct {
	name   string
	rate   float64
	origin time.Time
	end    time.Duration // due time of the step's last request (offset from origin)
	ops    []*op
}

// stepStats summarizes one measured step.
type stepStats struct {
	Name      string  `json:"name"`
	Rate      float64 `json:"rate_rps"`
	Due       int     `json:"due"`
	OK        int     `json:"ok"`
	Failed    int     `json:"failed"`
	Unsent    int     `json:"unsent"`
	QueuedEnd int     `json:"queued_end"`
	// P50 and Tail (the workload's tail percentile) are over acknowledged
	// requests, in ms; TailOK says whether enough samples lie beyond the
	// tail to report it.
	P50    float64 `json:"p50_ms"`
	Tail   float64 `json:"tail_ms"`
	TailOK bool    `json:"tail_ok"`
	// LimitP99 counts failed and unsent requests as misses; it decides the
	// latency limit.
	LimitP99 float64 `json:"limit_p99_ms"`
	LateTail float64 `json:"late_tail_ms"`
	Pass     bool    `json:"pass"`
}

// pct returns the q-quantile of sorted (nearest rank) and whether at least
// minBeyond samples lie beyond it.
func pct(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(q * float64(n)))
	k = min(max(k, 1), n)
	return sorted[k-1], n-k >= minBeyond
}

// summarize applies the latency limit and the backlog rule to a measured
// step: it passes when its p99, failures counted as misses, is within
// limitMs, and no more than one second's worth of requests were still due
// but unsent at its end.
func summarize(s *step, limitMs, tail float64) stepStats {
	st := stepStats{Name: s.name, Rate: s.rate, Due: len(s.ops)}
	var lat, limit, late []float64
	for _, o := range s.ops {
		if o.due <= s.end && (o.unsent() || o.sent > s.end) {
			st.QueuedEnd++
		}
		switch {
		case o.unsent():
			st.Unsent++
			limit = append(limit, math.Inf(1))
			continue
		case o.ok():
			st.OK++
			ms := float64(o.latency()) / float64(time.Millisecond)
			lat = append(lat, ms)
			limit = append(limit, ms)
		default:
			st.Failed++
			limit = append(limit, math.Inf(1))
		}
		late = append(late, float64(o.late)/float64(time.Millisecond))
	}
	st.P50 = windowedMedian(lat, medianWindows)
	sort.Float64s(lat)
	sort.Float64s(limit)
	sort.Float64s(late)
	st.Tail, st.TailOK = pct(lat, tail)
	st.LimitP99, _ = pct(limit, 0.99)
	st.LateTail, _ = pct(late, tail)
	st.Pass = len(limit) > 0 && st.LimitP99 <= limitMs && float64(st.QueuedEnd) <= s.rate
	return st
}

// medianWindows is how many consecutive windows a step's median latency is
// taken over: the step's p50 is the median of the windows' medians, so a
// burst of interference on the machine moves it only if it spans most of the
// step.
const medianWindows = 5

// windowedMedian splits xs (in send order) into n windows of equal count and
// returns the median of their medians.
func windowedMedian(xs []float64, n int) float64 {
	if len(xs) < n {
		n = 1
	}
	var meds []float64
	for w := 0; w < n; w++ {
		win := append([]float64(nil), xs[w*len(xs)/n:(w+1)*len(xs)/n]...)
		sort.Float64s(win)
		m, _ := pct(win, 0.5)
		meds = append(meds, m)
	}
	sort.Float64s(meds)
	m, _ := pct(meds, 0.5)
	return m
}

// maxRate is the highest rate of an ascending ladder whose steps all pass up
// to and including it (0 when the lowest step already fails).
func maxRate(steps []stepStats) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.Pass {
			break
		}
		best = s.Rate
	}
	return best
}

// stepLen is how many requests a step at rate sends: rate×seconds, but
// never fewer than needed to report the tail percentile with a fifth to
// spare.
func stepLen(rate, seconds, tail float64) int {
	return max(int(math.Round(rate*seconds)), int(math.Ceil(1.2*minBeyond/(1-tail))))
}

// fmtRate renders a ladder rate for step names.
func fmtRate(r float64) string { return strconv.FormatFloat(r, 'f', -1, 64) }

// Command perfbench is the repository's benchmark: it builds Switchboard's
// offline plan and serves open-loop call traffic through the HTTP API of an
// in-process fleet, checks the outputs, and prints every end-to-end metric
// (or, with -trace 1, every per-layer metric) by name, unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Run it from the repository root through perfbench/run.sh, which builds it
// first (--workload all runs each workload in turn):
//
//	bash perfbench/run.sh --workload calls-sharded --seed 1 --seconds 10 --trace 0
//
// The workloads, their topologies, trace scales, rate ladders and recorded
// plan outputs are in workloads.json; BENCHMARK.json at the root lists the
// metrics, and every run checks that it printed exactly those.
//
// A timed run sets up (trace, plan, fleet, warm-up), then sends seeded
// Poisson arrivals open loop over two connections, one ladder rate at a
// time; latency counts from each request's due time. The lo and hi steps
// always run, then the drain phase, then each higher rate while the p99
// stays within the latency limit and no more than one second's worth of
// requests is left queued. Output checks follow: every acknowledged
// transition must read back from the store under its shard's prefix, the
// standby must hold the primary's whole log, and the plan must serve its
// demand within capacity and match its recorded cost and mean ACL.
//
// A traced run keeps every span of the lo step and joins the benchmark's
// client spans with the program's own, reconciling each request's
// layer-by-layer self time with its client-observed latency; the joined
// spans are written to .bench_build/traces for cmd/sbtrace.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

//go:embed workloads.json
var suiteJSON []byte

// suite is workloads.json.
type suite struct {
	// LatencyLimitMs is the p99 a ladder step must meet (obs.SLOConfig's
	// default placement SLO: 99% within 250 ms).
	LatencyLimitMs float64 `json:"latency_limit_ms"`
	// ReconcileToleranceUs bounds, per traced request, the difference
	// between the client-observed latency and the sum of the layers' self
	// times plus the unattributed remainder.
	ReconcileToleranceUs float64    `json:"reconcile_tolerance_us"`
	Workloads            []workload `json:"workloads"`
}

// workload is one entry of workloads.json.
type workload struct {
	Name string `json:"name"`
	// Why the workload was chosen; Notes, how its rates were picked.
	Why      string `json:"why"`
	Notes    string `json:"notes"`
	Topology string `json:"topology"` // sharded | replicated | single
	// Nodes and EntryNodes size a sharded fleet: one shard per node, the
	// client connections entering through the first EntryNodes.
	Nodes      int `json:"nodes,omitempty"`
	EntryNodes int `json:"entry_nodes,omitempty"`
	// Plan is "bootstrap" (cmd/switchboard's, run once in set-up) or
	// "daily" (forecast-driven, run back to back as measured work).
	Plan        string `json:"plan"`
	HistoryDays int    `json:"history_days"`
	CallsPerDay int    `json:"calls_per_day"`
	// Ladder is the ascending open-loop rate ladder in requests/s; Lo and
	// Hi are two of its rates whose latencies are reported.
	Ladder []float64 `json:"ladder_rps"`
	Lo     float64   `json:"lo_rps"`
	Hi     float64   `json:"hi_rps"`
	// LoHiShare is the lo and hi steps' length as a share of --seconds
	// (steps are longer when needed for a reportable tail).
	LoHiShare float64 `json:"lo_hi_share"`
	// TailPct is the tail percentile reported: the highest the steps'
	// sample counts support at the workload's rates (minBeyond samples
	// beyond it).
	TailPct float64 `json:"tail_pct"`
	// TracedRequests is the traced run's lo-step length.
	TracedRequests int `json:"traced_requests"`
	// WarmRequests are sent at the hi rate before timing starts.
	WarmRequests int `json:"warm_requests"`
	// WarmLogSeq is the replication log head warm-up must reach.
	WarmLogSeq uint64 `json:"warm_log_seq,omitempty"`
	// Drains is how many times the drain phase fails the busiest DC.
	Drains int `json:"drains"`
	// PlanCost and PlanMeanACLMs are the plan's recorded outputs for the
	// history historySeed generates, checked on every run within the LP's
	// tolerance.
	PlanCost      float64 `json:"plan_cost"`
	PlanMeanACLMs float64 `json:"plan_mean_acl_ms"`
}

// Settings every workload shares.
const (
	// clientConns is how many client connections the generator uses; each
	// carries one request at a time.
	clientConns = 2
	// climbShare is the length of every ladder step above hi as a share of
	// --seconds.
	climbShare = 0.12
	// historySeed generates the planning history, the same for every run.
	historySeed = 1
	// topConfigs is how many configs the plan covers: cmd/switchboard's
	// PeakEnvelope(25), and the daily plan's forecast fits.
	topConfigs = 25
)

// stepShare is ladder step i's length as a share of --seconds.
func (w *workload) stepShare(i int) float64 {
	if i < 2 {
		return w.LoHiShare
	}
	return climbShare
}

// tail is the reported tail percentile as a quantile.
func (w *workload) tail() float64 { return w.TailPct / 100 }

func loadSuite() (*suite, error) {
	var s suite
	if err := json.Unmarshal(suiteJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if len(w.Ladder) < 2 || w.Ladder[0] != w.Lo || w.Ladder[1] != w.Hi || !sort.Float64sAreSorted(w.Ladder) {
			return nil, fmt.Errorf("workloads.json: %s: the ladder must ascend from lo_rps, hi_rps", w.Name)
		}
	}
	return &s, nil
}

// contract is BENCHMARK.json at the repository root: the workloads, and the
// metric names and units a run must print — every end-to-end metric from a
// timed run, every per-layer metric from a traced one.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// check reports the first difference between a run's metrics and the
// contract.
func (c *contract) check(res *result, traced bool) error {
	want := c.EndToEnd
	if traced {
		want = c.PerLayer
	}
	if len(want) != len(res.Metrics) {
		return fmt.Errorf("run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s missing from the run", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
	}
	return nil
}

// metric is one printed figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
	Note    string  `json:"-"`
}

// result is the run's last output line. shown holds figures printed in the
// table only: measured and reported, but too unsteady on a small shared
// machine to gate on.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	shown     map[string]metric
}

// report prints the human-readable table, then the result line.
func report(w *workload, seed int64, traced bool, res *result, extra []string) error {
	fmt.Printf("perfbench workload=%s seed=%d trace=%v GOMAXPROCS=%d nproc=%d go=%s\n",
		w.Name, seed, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Printf("why: %s\nnotes: %s\n", w.Why, w.Notes)
	for _, l := range extra {
		fmt.Println(l)
	}
	all := map[string]metric{}
	for n, m := range res.shown {
		m.Note = strings.TrimPrefix(m.Note+"; not gated", "; ")
		all[n] = m
	}
	for n, m := range res.Metrics {
		all[n] = m
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %-7s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, n := range names {
		m := all[n]
		fmt.Printf("%-34s %14.6g %-7s %8d  %s\n", n, m.Value, m.Unit, m.Samples, m.Note)
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("fail_ratio %.6g (failed %d of %d attempted)\n", ratio, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// heapPeak samples the live Go heap (as of the last collection) until
// stopped: what the program retains, not how far garbage piled up between
// collections.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func sampleHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// mb stops sampling and returns the peak in MB.
func (h *heapPeak) mb() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// planResult is the plan a workload solved and how long each solve took.
type planResult struct {
	plan  *bootPlan
	walls []float64
	same  bool // every repeat yielded the same plan
}

// runPlans solves the workload's plan back to back: at least once, and
// until seconds have passed.
func runPlans(w *workload, h *history, seconds float64) (*planResult, error) {
	pr := &planResult{same: true}
	start := time.Now()                                               //sblint:allow nondeterminism -- plans run for a wall-clock budget
	for len(pr.walls) == 0 || time.Since(start).Seconds() < seconds { //sblint:allow nondeterminism -- plans run for a wall-clock budget
		// Every solve starts from the same heap: the ingested history.
		runtime.GC()
		t0 := time.Now() //sblint:allow nondeterminism -- timing one plan
		var p *bootPlan
		var err error
		if w.Plan == "daily" {
			p, err = dailyPlan(h)
		} else {
			p, err = bootstrapPlan(h)
		}
		if err != nil {
			return nil, err
		}
		pr.walls = append(pr.walls, time.Since(t0).Seconds()) //sblint:allow nondeterminism -- timing one plan
		if pr.plan != nil && !samePlan(pr.plan, p) {
			pr.same = false
		}
		pr.plan = p
	}
	return pr, nil
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	name := flag.String("workload", "", "workload name (see workloads.json), or all to run each in turn")
	seed := flag.Int64("seed", 1, "seed for the call traffic and its arrivals")
	seconds := flag.Float64("seconds", 10, "measured seconds; sets the ladder's step lengths and plan-daily's plan budget")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	s, err := loadSuite()
	if err != nil {
		fail(err)
	}
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		fail(fmt.Errorf("run from the repository root: %w", err))
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	var run []*workload
	var names []string
	for i := range s.Workloads {
		names = append(names, s.Workloads[i].Name)
		if *name == "all" || s.Workloads[i].Name == *name {
			run = append(run, &s.Workloads[i])
		}
	}
	if len(run) == 0 {
		fail(fmt.Errorf("unknown workload %q (have %s, or all)", *name, strings.Join(names, ", ")))
	}
	for _, w := range run {
		var res *result
		var extra []string
		if *trace == 1 {
			res, extra, err = tracedRun(s, w, *seed, *seconds)
		} else {
			res, extra, err = timedRun(s, w, *seed, *seconds)
		}
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		if err := c.check(res, *trace == 1); err != nil {
			fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		if err := report(w, *seed, *trace == 1, res, extra); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

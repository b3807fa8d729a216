package main

import (
	"fmt"
	"math"
	"time"

	"switchboard/internal/allocate"
	"switchboard/internal/controller"
	"switchboard/internal/eval"
	"switchboard/internal/forecast"
	"switchboard/internal/geo"
	"switchboard/internal/model"
	"switchboard/internal/provision"
	"switchboard/internal/records"
	"switchboard/internal/trace"
)

// The offline stage (§5): history → demand → provisioning LP with one
// scenario per failure → daily allocation plan. Call workloads run it once
// during set-up, exactly as cmd/switchboard bootstraps; plan-daily runs the
// forecast-driven variant back to back as its measured work.

// Settings cmd/switchboard's bootstrap and the eval pipeline share.
const (
	latencyThresholdMs = 120
	slotStride         = 8
	minLatencySamples  = 20
	// planTol is the LP's relative tolerance for comparing plan figures.
	planTol = 1e-6
)

// history is the planning history, ingested, and the call traffic of the
// days that follow it.
type history struct {
	world       *geo.World
	db          *records.DB
	days        int
	callsPerDay int
	traffic     []*model.CallRecord
}

// genTrace generates trace from seed, starting at start, for up to days or
// until each returns false.
func genTrace(world *geo.World, seed int64, start time.Time, days, callsPerDay int, each func(*model.CallRecord) bool) error {
	tc := trace.DefaultConfig()
	tc.Seed = seed
	tc.Start = start
	tc.Days = days
	tc.CallsPerDay = callsPerDay
	tc.World = world
	g, err := trace.NewGenerator(tc)
	if err != nil {
		return err
	}
	g.EachCall(each)
	return nil
}

// genHistory generates histDays of history from the fixed historySeed and
// ingests it. The plan's input is fixed because the LP's solve time varies
// with it by up to 2x between seeds, which would swamp any change to the
// solver.
func genHistory(histDays, callsPerDay int) (*history, error) {
	world := geo.DefaultWorld()
	start := trace.DefaultConfig().Start
	h := &history{world: world, db: records.New(start, world), days: histDays, callsPerDay: callsPerDay}
	return h, genTrace(world, historySeed, start, histDays, callsPerDay, func(r *model.CallRecord) bool {
		h.db.Add(r)
		return true
	})
}

// maxTrafficDays caps the trace generated after the history.
const maxTrafficDays = 365

// genTraffic generates the first calls calls that follow the history from
// the run's seed; they become requests. Plans are solved before it runs, so
// the heap a solve starts from is the same for every seed.
func (h *history) genTraffic(seed int64, calls int) error {
	start := trace.DefaultConfig().Start.AddDate(0, 0, h.days)
	err := genTrace(h.world, seed, start, maxTrafficDays, h.callsPerDay, func(r *model.CallRecord) bool {
		if len(r.Legs) > 0 { // BuildEvents skips a call without legs
			h.traffic = append(h.traffic, r)
		}
		return len(h.traffic) < calls
	})
	if err == nil && len(h.traffic) < calls {
		err = fmt.Errorf("%d days of trace hold %d calls, the run needs %d", maxTrafficDays, len(h.traffic), calls)
	}
	return err
}

// bootPlan is a solved daily plan and everything the controller needs from
// it.
type bootPlan struct {
	world *geo.World
	est   *records.LatencyEstimator
	lm    *provision.LoadModel
	plan  *provision.Plan
	alloc *allocate.Result
}

// placer is the controller's view of the plan (cmd/switchboard's wiring).
func (p *bootPlan) placer() controller.Placer {
	aclOf := func(cfg model.CallConfig, dc int) float64 { return p.est.ACL(cfg, dc) }
	return controller.NewPlanPlacer(p.lm.Demand().Configs, p.alloc.Alloc, aclOf, len(p.world.DCs()))
}

// cost and meanACL are the checked plan outputs.
func (p *bootPlan) cost() float64    { return p.plan.Cost(p.world) }
func (p *bootPlan) meanACL() float64 { return p.alloc.MeanACL }

// solve provisions for demand with backup and builds the allocation plan.
func solve(world *geo.World, est *records.LatencyEstimator, demand *records.Demand) (*bootPlan, error) {
	in := &provision.Inputs{
		World:              world,
		Latency:            est,
		Demand:             demand,
		LatencyThresholdMs: latencyThresholdMs,
		WithBackup:         true,
		SlotStride:         slotStride,
	}
	p := &bootPlan{world: world, est: est}
	var err error
	if p.lm, err = provision.NewLoadModel(in); err != nil {
		return nil, err
	}
	if p.plan, err = provision.Switchboard(in); err != nil {
		return nil, err
	}
	if p.alloc, err = allocate.Build(p.lm, p.plan.Cores, p.plan.LinkGbps); err != nil {
		return nil, err
	}
	return p, nil
}

// bootstrapPlan is cmd/switchboard's bootstrap: the history's peak envelope
// over the top configs, provisioned with backup.
func bootstrapPlan(h *history) (*bootPlan, error) {
	return solve(h.world, h.db.Estimator(minLatencySamples), h.db.PeakEnvelope(topConfigs))
}

// dailyPlan is the forecast-driven daily plan (the eval.ForecastDemand
// pipeline): Holt-Winters per top config projects the next day, which is
// provisioned with backup.
func dailyPlan(h *history) (*bootPlan, error) {
	env := &eval.Env{Cfg: eval.Config{EvalDays: 1, TopConfigs: topConfigs}, TrainDB: h.db}
	demand, err := eval.ForecastDemand(env)
	if err != nil {
		return nil, err
	}
	return solve(h.world, h.db.Estimator(minLatencySamples), demand)
}

// samePlan reports whether two solves of the same inputs agree exactly.
func samePlan(a, b *bootPlan) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.plan.Cores, b.plan.Cores) && eq(a.plan.LinkGbps, b.plan.LinkGbps) &&
		math.Float64bits(a.meanACL()) == math.Float64bits(b.meanACL())
}

// checkServes verifies the allocation plan serves its demand within the
// provisioned capacities in every slot.
func checkServes(p *bootPlan) error {
	d := p.lm.Demand()
	var total float64
	for t := range d.Counts {
		for c, dem := range d.Counts[t] {
			total += dem
			var served float64
			for _, v := range p.alloc.Alloc[t][c] {
				served += v
			}
			if math.Abs(served-dem) > planTol*math.Max(1, dem) {
				return fmt.Errorf("%w: slot %d config %d serves %.6g of demand %.6g", errCheck, t, c, served, dem)
			}
		}
	}
	if p.alloc.Overflow > planTol*math.Max(1, total) {
		return fmt.Errorf("%w: allocation overflows by %.6g calls", errCheck, p.alloc.Overflow)
	}
	within := func(what string, use [][]float64, capacity []float64) error {
		for t, row := range use {
			for x, u := range row {
				if u > capacity[x]*(1+planTol)+planTol {
					return fmt.Errorf("%w: slot %d %s %d uses %.6g of %.6g", errCheck, t, what, x, u, capacity[x])
				}
			}
		}
		return nil
	}
	if err := within("DC", p.lm.ComputeUsage(p.alloc.Alloc), p.plan.Cores); err != nil {
		return err
	}
	return within("link", p.lm.LinkUsage(p.alloc.Alloc, -1), p.plan.LinkGbps)
}

// planLayers times the offline stage's layers one by one for the traced
// run: trace generation, records ingest and estimation, forecast fits,
// provisioning with and without backup, and the allocation plan. It solves
// the workload's plan from the same history as planSetup, so the plan it
// returns must equal the one set-up solved.
func planLayers(w *workload) (map[string]float64, *bootPlan, error) {
	out := map[string]float64{}
	world := geo.DefaultWorld()
	tc := trace.DefaultConfig()
	tc.Seed = historySeed
	tc.Days = w.HistoryDays
	tc.CallsPerDay = w.CallsPerDay
	tc.World = world
	t0 := time.Now() //sblint:allow nondeterminism -- timing the layer
	g, err := trace.NewGenerator(tc)
	if err != nil {
		return nil, nil, err
	}
	var recs []*model.CallRecord
	g.EachCall(func(r *model.CallRecord) bool { recs = append(recs, r); return true })
	out["trace.gen_s"] = time.Since(t0).Seconds() //sblint:allow nondeterminism -- timing the layer

	t0 = time.Now() //sblint:allow nondeterminism -- timing the layer
	db := records.New(tc.Start, world)
	for _, r := range recs {
		db.Add(r)
	}
	out["records.ingest_s"] = time.Since(t0).Seconds() //sblint:allow nondeterminism -- timing the layer

	t0 = time.Now() //sblint:allow nondeterminism -- timing the layer
	est := db.Estimator(minLatencySamples)
	demand := db.PeakEnvelope(topConfigs)
	out["records.estimate_s"] = time.Since(t0).Seconds() //sblint:allow nondeterminism -- timing the layer

	if w.Plan == "daily" {
		t0 = time.Now() //sblint:allow nondeterminism -- timing the layer
		top := db.TopConfigs(topConfigs)
		for _, cs := range top {
			if _, err := forecast.FitAuto(cs.Counts, 7*model.SlotsPerDay); err != nil {
				return nil, nil, err
			}
		}
		out["forecast.fit_s"] = time.Since(t0).Seconds() //sblint:allow nondeterminism -- timing the layer
		out["forecast.fits"] = float64(len(top))
		env := &eval.Env{Cfg: eval.Config{EvalDays: 1, TopConfigs: topConfigs}, TrainDB: db}
		if demand, err = eval.ForecastDemand(env); err != nil {
			return nil, nil, err
		}
	} else {
		out["forecast.fit_s"], out["forecast.fits"] = 0, 0
	}

	in := &provision.Inputs{World: world, Latency: est, Demand: demand,
		LatencyThresholdMs: latencyThresholdMs, SlotStride: slotStride}
	t0 = time.Now() //sblint:allow nondeterminism -- timing the layer
	f0, err := provision.Switchboard(in)
	if err != nil {
		return nil, nil, err
	}
	out["provision.f0_s"] = time.Since(t0).Seconds() //sblint:allow nondeterminism -- timing the layer

	in.WithBackup = true
	p := &bootPlan{world: world, est: est}
	t0 = time.Now() //sblint:allow nondeterminism -- timing the layer
	if p.plan, err = provision.Switchboard(in); err != nil {
		return nil, nil, err
	}
	out["provision.solve_s"] = time.Since(t0).Seconds() //sblint:allow nondeterminism -- timing the layer
	if p.lm, err = provision.NewLoadModel(in); err != nil {
		return nil, nil, err
	}
	// provision does not report how many scenario LPs it solved, so this is
	// derived from its documented failure model: F0, one scenario per DC,
	// and one per WAN link the no-failure solution loads.
	scenarios := 1 + len(world.DCs())
	for _, g := range f0.LinkGbps {
		if g > 1e-12 {
			scenarios++
		}
	}
	out["provision.scenarios"] = float64(scenarios)

	t0 = time.Now() //sblint:allow nondeterminism -- timing the layer
	if p.alloc, err = allocate.Build(p.lm, p.plan.Cores, p.plan.LinkGbps); err != nil {
		return nil, nil, err
	}
	out["allocate.plan_s"] = time.Since(t0).Seconds() //sblint:allow nondeterminism -- timing the layer
	out["plan.cost"] = p.cost()
	out["plan.mean_acl_ms"] = p.meanACL()
	return out, p, nil
}

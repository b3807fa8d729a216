package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/httpapi"
	"switchboard/internal/kvstore"
	"switchboard/internal/kvstore/replica"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
	"switchboard/internal/shard"
)

// The fleets below are wired the way cmd/switchboard wires a process with its
// default flags: metrics registry, decision ring and span ring on, the
// store client's production timeouts, and the SLO monitor running. Only the
// debug listener is left out; nothing scrapes it here.

// logger keeps the program's rare warnings (degraded store, fenced writes)
// visible on stderr, away from the result on stdout.
var logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

// kvOptions are cmd/switchboard's default store-client flags.
func kvOptions(seed int64, m *kvstore.ClientMetrics) kvstore.Options {
	return kvstore.Options{
		DialTimeout: 2 * time.Second,
		IOTimeout:   5 * time.Second,
		MaxRetries:  2,
		BackoffMin:  50 * time.Millisecond,
		BackoffMax:  2 * time.Second,
		Seed:        seed,
		Metrics:     m,
	}
}

// node is one switchboard process: its telemetry, its HTTP API and what it
// must stop on the way out.
type node struct {
	addr   string // HTTP API address, also the node's lease owner ID
	reg    *obs.Registry
	tracer *span.Tracer
	ring   *obs.DecisionRing
	ctrlM  *controller.Metrics
	ln     net.Listener
	api    *httpapi.Server
	http   *http.Server
	slo    *obs.SLOMonitor
	kv     *kvstore.Client // the node's main store client (api.KV)

	mgr     *shard.Manager
	elector *controller.Elector
	ctrl    *controller.Controller // unsharded nodes only
	placer  controller.Placer      // shared by the node's controllers
	closers []io.Closer
}

// newNode builds a node's telemetry and claims its listener. extra, when
// non-nil, is a second span sink (the traced run's collector).
func newNode(seed int64, extra span.Sink) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	sinks := []span.Sink{span.NewRing(span.DefaultRingCapacity)}
	if extra != nil {
		sinks = append(sinks, extra)
	}
	return &node{
		addr:   ln.Addr().String(),
		reg:    reg,
		tracer: span.NewTracer(seed, sinks...),
		ring:   obs.NewDecisionRing(obs.DefaultRingCapacity),
		ctrlM:  controller.NewMetrics(reg),
		ln:     ln,
	}, nil
}

// dial opens a store client whose Close the node owns.
func (n *node) dial(addrs []string, opts kvstore.Options) (*kvstore.Client, error) {
	c, err := kvstore.DialFailover(addrs, opts)
	if err != nil {
		return nil, err
	}
	n.closers = append(n.closers, c)
	return c, nil
}

// newController builds one controller over store with the node's telemetry.
func (n *node) newController(p *bootPlan, store *kvstore.Client, prefix string, sh int) (*controller.Controller, error) {
	if n.placer == nil {
		n.placer = p.placer()
	}
	return controller.New(controller.Config{
		World:         p.world,
		Placer:        n.placer,
		Store:         store,
		KeyPrefix:     prefix,
		Shard:         sh,
		JournalCap:    8192,
		ProbeInterval: time.Second,
		Metrics:       n.ctrlM,
		Decisions:     n.ring,
		Logger:        logger,
	})
}

// serve finishes the API wiring and starts the HTTP listener and the SLO
// monitor. shards is the router of a sharded node, else nil.
func (n *node) serve(p *bootPlan, shards *httpapi.ShardRouter) {
	n.api = httpapi.New(p.world, n.ctrl)
	n.api.HTTP = obs.NewHTTPMetrics(n.reg)
	n.api.KV = n.kv
	n.api.Tracer = n.tracer
	n.api.Registry = n.reg
	n.api.Instance = n.addr
	n.api.Elector = n.elector
	n.api.Shards = shards
	n.slo = obs.NewSLOMonitor(n.reg, obs.SLOConfig{Latency: n.ctrlM.PlaceSeconds, HTTP: n.api.HTTP})
	go n.slo.Run(obs.DefaultSLOSampleInterval)
	n.api.SLO = n.slo
	n.http = &http.Server{Handler: n.api.Mux(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = n.http.Serve(n.ln) }()
}

// controllers is every controller the node hosts.
func (n *node) controllers() []*controller.Controller {
	if n.mgr != nil {
		return n.mgr.Controllers()
	}
	return []*controller.Controller{n.ctrl}
}

func (n *node) stop() {
	if n.http != nil {
		_ = n.http.Close()
	} else {
		_ = n.ln.Close()
	}
	if n.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		n.mgr.Stop(ctx)
		cancel()
	}
	if n.elector != nil {
		n.elector.Stop()
		<-n.elector.Done()
	}
	n.slo.Stop()
	for _, c := range n.closers {
		_ = c.Close()
	}
}

// fleet is the system under test of one call workload.
type fleet struct {
	nodes []*node
	entry []*node // the nodes client connections enter through
	store *kvstore.Server
	// ring maps calls to shards (nil when unsharded: every key is
	// unprefixed).
	ring *shard.Ring
	// primary/standby are set on the replicated topology.
	primary *replica.Primary
	replM   *replica.Metrics
	standby *replica.Standby
	storeLn net.Listener
	stops   []func()
}

// prefixOf is the store key prefix a call's state lives under.
func (f *fleet) prefixOf(call uint64) string {
	if f.ring == nil {
		return ""
	}
	return shard.KeyPrefix(f.ring.Lookup(call))
}

func (f *fleet) stop() {
	for _, n := range f.nodes {
		n.stop()
	}
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
}

// startStore starts an in-process kvstore, its metrics on reg.
func (f *fleet) startStore(reg *obs.Registry) (string, error) {
	f.store = kvstore.NewServer()
	f.store.SetMetrics(kvstore.NewServerMetrics(reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.storeLn = ln
	go func() { _ = f.store.Serve(ln) }()
	f.stops = append(f.stops, func() { _ = f.store.Close() })
	return ln.Addr().String(), nil
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout) //sblint:allow nondeterminism -- real-time settle deadline
	for !cond() {
		if time.Now().After(deadline) { //sblint:allow nondeterminism -- real-time settle deadline
			return fmt.Errorf("%s: not reached within %v", what, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// startSharded builds the calls-sharded topology: shards nodes, each the
// preferred owner of one shard, leasing it through shard.Manager (the wiring
// of eval.ShardDrill and `switchboard -shards N -shard-id i`), all sharing
// one unreplicated in-process store held by node 0. Connections enter
// through the first `entries` nodes.
func startSharded(p *bootPlan, shards, entries int, seed int64, sink func(node int) span.Sink) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	ring, err := shard.NewRing(shards, 0)
	if err != nil {
		return nil, err
	}
	f.ring = ring
	for i := 0; i < shards; i++ {
		n, err := newNode(seed+int64(i), sink(i))
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	kvAddr, err := f.startStore(f.nodes[0].reg)
	if err != nil {
		return nil, err
	}
	addrs := []string{kvAddr}
	for i, n := range f.nodes {
		n := n
		if n.kv, err = n.dial(addrs, kvOptions(seed, kvstore.NewClientMetrics(n.reg))); err != nil {
			return nil, err
		}
		shardCtrl := func(sh int) (*controller.Controller, error) {
			c, err := n.dial(addrs, kvOptions(seed+int64(2+sh), nil))
			if err != nil {
				return nil, err
			}
			return n.newController(p, c, shard.KeyPrefix(sh), sh)
		}
		ctrls := make([]*controller.Controller, shards)
		for sh := range ctrls {
			if ctrls[sh], err = shardCtrl(sh); err != nil {
				return nil, err
			}
		}
		var peers []string
		for _, o := range f.nodes {
			if o != n {
				peers = append(peers, o.addr)
			}
		}
		n.mgr, err = shard.NewManager(shard.Config{
			Ring:        ring,
			ID:          n.addr,
			Controllers: ctrls,
			ElectorStore: func(sh int) (*kvstore.Client, error) {
				return kvstore.DialFailover(addrs, kvOptions(seed+int64(100+sh), nil))
			},
			WatchStore: func() (*kvstore.Client, error) {
				return n.dial(addrs, kvOptions(seed+200, nil))
			},
			NewController: shardCtrl,
			Prefer:        []int{i},
			TTL:           controller.DefaultLeaseTTL,
			Recover:       true,
			Metrics:       shard.NewMetrics(n.reg),
			Logger:        logger,
			Tracer:        n.tracer,
		})
		if err != nil {
			return nil, err
		}
		n.serve(p, &httpapi.ShardRouter{Manager: n.mgr, Forward: true, Peers: peers})
	}
	for _, n := range f.nodes {
		n.mgr.Start()
	}
	f.entry = f.nodes[:entries]
	// Settle onto the preference map, with every node knowing every other
	// shard's leader, so requests are proxied straight to the owner.
	err = waitFor("shard ownership", 30*time.Second, func() bool {
		for i, n := range f.nodes {
			for sh := range f.nodes {
				if (sh == i) != n.mgr.Owns(sh) {
					return false
				}
				if sh != i && n.mgr.OwnerHint(sh) != f.nodes[sh].addr {
					return false
				}
			}
		}
		return true
	})
	return f, err
}

// startReplicated builds the calls-replicated topology: one unsharded node
// leading through a lease with fenced writes (`switchboard -repl-role
// primary -lease`), its in-process store a replication primary streaming to a
// semi-synchronous standby with the default log capacity. wrap, when
// non-nil, replaces the primary as the store's replicator (the traced run's
// timing wrapper).
func startReplicated(p *bootPlan, seed int64, sink span.Sink, wrap func(*replica.Primary) kvstore.Replicator) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	n, err := newNode(seed, sink)
	if err != nil {
		return nil, err
	}
	f.nodes = []*node{n}
	f.entry = f.nodes
	kvAddr, err := f.startStore(n.reg)
	if err != nil {
		return nil, err
	}
	popts := replica.PrimaryOptions{AckMode: replica.AckStandby, AckTimeout: time.Second, Metrics: replica.NewMetrics(n.reg)}
	f.primary = replica.NewPrimary(f.store, 0, popts)
	f.replM = popts.Metrics
	if wrap != nil {
		f.store.SetReplicator(wrap(f.primary))
	}
	// The standby is the peer process's store: its own registry, no
	// listener (nothing reads from it here but the convergence check).
	sbSrv := kvstore.NewServer()
	f.standby = replica.NewStandby(sbSrv, kvAddr, replica.StandbyOptions{
		FailoverTimeout: 2 * time.Second,
		Promote:         popts,
		Metrics:         replica.NewMetrics(obs.NewRegistry()),
		Logger:          logger,
	})
	go f.standby.Run()
	f.stops = append(f.stops, func() { f.standby.Stop(); <-f.standby.Done() })

	addrs := []string{kvAddr}
	if n.kv, err = n.dial(addrs, kvOptions(seed, kvstore.NewClientMetrics(n.reg))); err != nil {
		return nil, err
	}
	// Writes ack locally until the standby attaches; wait for the pair to
	// form so no timed write escapes the semi-sync path.
	probe := 0
	err = waitFor("standby attach", 15*time.Second, func() bool {
		probe++
		if n.kv.HSet("perfbench:attach", "probe", fmt.Sprint(probe)) != nil {
			return false
		}
		return f.standby.LastSeq() == f.primary.LastSeq()
	})
	if err != nil {
		return nil, err
	}
	if n.ctrl, err = n.newController(p, n.kv, "", 0); err != nil {
		return nil, err
	}
	lkv, err := n.dial(addrs, kvOptions(seed+1, nil))
	if err != nil {
		return nil, err
	}
	ctrl := n.ctrl
	n.elector = controller.NewElector(controller.ElectorConfig{
		Store: lkv,
		Key:   controller.DefaultLeaseKey,
		ID:    n.addr,
		TTL:   controller.DefaultLeaseTTL,
		OnLead: func(epoch int64) {
			ctrl.SetLease(controller.DefaultLeaseKey, epoch)
			if _, err := ctrl.ReplayJournal(context.Background()); err != nil {
				logger.Warn("journal replay on takeover", "err", err)
			}
		},
		OnLose:  ctrl.ClearLease,
		Metrics: controller.NewElectorMetrics(n.reg),
		Logger:  logger,
		Tracer:  n.tracer,
	})
	go n.elector.Run()
	n.serve(p, nil)
	return f, waitFor("lease", 15*time.Second, n.elector.IsLeader)
}

// startSingle builds the plan-daily serving node: `switchboard` with its
// default flags — one unsharded node, no lease, an unreplicated in-process
// store.
func startSingle(p *bootPlan, seed int64, sink span.Sink) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	n, err := newNode(seed, sink)
	if err != nil {
		return nil, err
	}
	f.nodes = []*node{n}
	f.entry = f.nodes
	kvAddr, err := f.startStore(n.reg)
	if err != nil {
		return nil, err
	}
	if n.kv, err = n.dial([]string{kvAddr}, kvOptions(seed, kvstore.NewClientMetrics(n.reg))); err != nil {
		return nil, err
	}
	if n.ctrl, err = n.newController(p, n.kv, "", 0); err != nil {
		return nil, err
	}
	n.serve(p, nil)
	return f, nil
}

// errCheck marks an output-check failure.
var errCheck = errors.New("output check failed")

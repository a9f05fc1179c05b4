package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/graph"
	"hardharvest/internal/obs"
	"hardharvest/internal/route"
	"hardharvest/internal/scenario"
	"hardharvest/internal/sim"
	"hardharvest/internal/validate"
)

// The traced replica. (*scenario.Scenario).RunShards cannot be timed from
// inside, so the traced run rebuilds the same fleet through the layers'
// public functions, in the order RunShards uses them, and records a span
// around each call. It must simulate exactly what RunShards simulates;
// crossCheck proves that against the untraced Report of the same document.
// Only the scenario features the benchmark workloads use are supported;
// anything else is refused rather than approximated.

// observeSample is the sampling period of observer timing: every 64th
// Observe call is timed and the total is extrapolated from the mean.
const observeSample = 64

// clockCost measures the cheapest back-to-back clock read, which each timed
// Observe call subtracts so the estimate counts the observers, not the
// clock.
func clockCost(base time.Time) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 1000; i++ {
		s := time.Since(base)
		best = min(best, time.Since(base)-s)
	}
	return best
}

// timedObserver forwards to the scenario's observer stack (Multi(Meter,
// Audit)) and counts calls. It forwards SetTopology, the only optional
// observer interface that stack uses (its snapshot interval is zero).
type timedObserver struct {
	inner   obs.Observer
	base    time.Time
	clock   time.Duration // clockCost, subtracted per timed call
	calls   uint64
	sampled uint64
	ns      int64
}

func (o *timedObserver) Observe(ev obs.Event) {
	o.calls++
	if o.calls%observeSample != 0 {
		o.inner.Observe(ev)
		return
	}
	s := time.Since(o.base)
	o.inner.Observe(ev)
	o.ns += int64(max(0, time.Since(o.base)-s-o.clock))
	o.sampled++
}

func (o *timedObserver) SetTopology(t obs.Topology) {
	if to, ok := o.inner.(obs.TopologyObserver); ok {
		to.SetTopology(t)
	}
}

// estimate reports the extrapolated observer time in seconds.
func (o *timedObserver) estimate() float64 {
	if o.sampled == 0 {
		return 0
	}
	return float64(o.ns) / float64(o.sampled) * float64(o.calls) / 1e9
}

// replServer is one rebuilt fleet server.
type replServer struct {
	index   int
	group   string
	harvest bool
	cfg     cluster.Config
	srv     *cluster.Server
	meter   *obs.Meter
	audit   *obs.Audit
	ob      *timedObserver
	faults  []faultAct
	res     *cluster.ServerResult
	done    bool
	err     error
}

type faultAct struct {
	at  sim.Time
	evt *scenario.EventEntry
}

// replicaResult is what one traced run measured.
type replicaResult struct {
	wall    float64 // traced seconds from the first NewServer to the last check
	tr      *tracer
	servers []*replServer
	fleet   *route.Result
	dag     *graph.Result
	workers int
	// frontEvents counts the router's or dispatcher's engine events.
	frontEvents uint64
	failed      []string // oracle failures on the replica's own results
}

func systemKind(name string) (cluster.SystemKind, error) {
	for _, k := range cluster.Systems() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown system %q", name)
}

// barrier quantizes a scenario timestamp to the first barrier at or after
// it, as the scenario compiler does.
func barrier(sc *scenario.Scenario, atMS float64) sim.Time {
	n := int64(math.Ceil(atMS/float64(sc.StepMS) - 1e-9))
	if n < 0 {
		n = 0
	}
	return sim.Time(sim.Duration(n*int64(sc.StepMS)) * sim.Millisecond)
}

func selects(t scenario.Target, s *replServer) bool {
	switch {
	case t.Group != "":
		return t.Group == s.group
	case t.Server >= 0:
		return t.Server == s.index
	}
	return true
}

// supported refuses scenario features the replica does not rebuild.
func supported(sc *scenario.Scenario) error {
	if len(sc.Workload) > 0 {
		return fmt.Errorf("replica: workload timelines are not supported")
	}
	for i, e := range sc.Events {
		if e.Kind != scenario.EvFaults || e.Plan == nil {
			return fmt.Errorf("replica: event %d: only inline fault plans are supported", i)
		}
		if sc.Routing == nil && sc.Graph == nil {
			return fmt.Errorf("replica: events on routerless fleets are not supported")
		}
	}
	for _, g := range sc.Fleet {
		if g.Generation != "" || (g.ExecFactor != 0 && g.ExecFactor != 1) {
			return fmt.Errorf("replica: group %s: hardware generations are not supported", g.Name)
		}
	}
	return nil
}

// runReplica rebuilds and runs the scenario with spans around every layer
// call.
func runReplica(sc *scenario.Scenario) (*replicaResult, error) {
	if err := supported(sc); err != nil {
		return nil, err
	}
	tr := newTracer()
	clock := clockCost(tr.t0)
	routed, graphed := sc.Routing != nil, sc.Graph != nil
	begin := tr.now()

	// Servers, seeded exactly as the scenario compiler seeds them.
	var servers []*replServer
	for gi := range sc.Fleet {
		g := &sc.Fleet[gi]
		kind, err := systemKind(g.System)
		if err != nil {
			return nil, err
		}
		work, err := batch.WorkloadByName(g.Workload)
		if err != nil {
			return nil, err
		}
		for j := 0; j < g.Count; j++ {
			i := len(servers)
			cfg := cluster.DefaultConfig()
			cfg.Seed = sc.Seed + uint64(i)*7919
			cfg.Strict = sc.Strict
			cfg.CoresPerServer = g.Cores
			cfg.PrimaryVMs = g.PrimaryVMs
			cfg.CoresPerPrimary = g.CoresPerPrimary
			cfg.HarvestOwnCores = g.HarvestCores
			cfg.WarmupDuration = sim.Duration(sc.WarmupMS) * sim.Millisecond
			cfg.MeasureDuration = sim.Duration(sc.DurationMS) * sim.Millisecond
			if g.LoadScale > 0 {
				cfg.LoadScale = g.LoadScale
			}
			opts := cluster.SystemOptions(kind)
			s := &replServer{index: i, group: g.Name, harvest: opts.Harvesting, cfg: cfg,
				meter: obs.NewMeter(), audit: obs.NewAudit()}
			s.ob = &timedObserver{inner: obs.Multi(s.meter, s.audit), base: tr.t0, clock: clock}
			opts.Observer = s.ob
			opts.SketchLatency = true
			opts.RemoteAdmission = routed || graphed
			tr.timed(spNew, func() { s.srv = cluster.NewServer(cfg, opts, work) })
			servers = append(servers, s)
		}
	}
	for ei := range sc.Events {
		e := &sc.Events[ei]
		for _, s := range servers {
			if selects(e.Target, s) {
				s.faults = append(s.faults, faultAct{at: barrier(sc, e.AtMS), evt: e})
			}
		}
	}

	var group *sim.ShardGroup
	var rt *route.Router
	var gd *graph.Dispatcher
	horizon := sim.Time(0)
	switch {
	case routed:
		rc, err := routeConfig(sc.Routing)
		if err != nil {
			return nil, err
		}
		backends := make([]route.Backend, len(servers))
		for i, s := range servers {
			backends[i] = route.Backend{Server: s.srv, Cfg: s.cfg,
				Name: fmt.Sprintf("server%d[%s]", s.index, s.group), Weight: 1}
		}
		tr.timed(spRouteNew, func() { rt = route.New(rc, backends) })
		tr.timed(spShardSetup, func() {
			group = sim.NewShardGroup(0)
			self := group.AddFunc(rt.Engine(), traceAdvance(tr, 0, spRouteAdvance, rt.Engine(), rt.Advance))
			members := addServers(tr, group, servers, self, rc.NetDelay)
			rt.Bind(group, self, members)
			rt.SetActions(nil)
		})
	case graphed:
		spec := sc.Graph.Spec()
		byGroup := make(map[string][]int, len(sc.Fleet))
		backends := make([]graph.Backend, len(servers))
		for i, s := range servers {
			backends[i] = graph.Backend{Server: s.srv, Cfg: s.cfg,
				Name: fmt.Sprintf("server%d[%s]", s.index, s.group)}
			byGroup[s.group] = append(byGroup[s.group], i)
		}
		tiers := make([][]int, len(spec.Tiers))
		for ti := range spec.Tiers {
			tiers[ti] = byGroup[spec.Tiers[ti].Group]
		}
		tr.timed(spGraphNew, func() { gd = graph.New(spec, backends, tiers) })
		tr.timed(spShardSetup, func() {
			group = sim.NewShardGroup(0)
			self := group.AddFunc(gd.Engine(), traceAdvance(tr, 0, spGraphAdvance, gd.Engine(), gd.Advance))
			members := addServers(tr, group, servers, self, spec.NetDelay)
			gd.Bind(group, self, members)
			gd.SetActions(nil)
		})
	default:
		tr.timed(spShardSetup, func() {
			group = sim.NewShardGroup(0)
			addServers(tr, group, servers, -1, 0)
		})
	}
	for _, s := range servers {
		tr.timed(spStart, s.srv.Start)
		if h := s.srv.Horizon(); h > horizon {
			horizon = h
		}
	}
	tr.timed(spShardRun, func() { group.Run(horizon) })

	out := &replicaResult{tr: tr, servers: servers, workers: group.Workers()}
	if rt != nil {
		out.frontEvents = rt.Engine().Fired()
	}
	if gd != nil {
		out.frontEvents = gd.Engine().Fired()
	}
	for _, s := range servers {
		if s.err != nil {
			return nil, fmt.Errorf("replica: server %d: %w", s.index, s.err)
		}
		tr.timed(spFinish, func() {
			s.res = s.srv.Finish()
			s.audit.Finish(s.res.AccountedEnd)
		})
	}
	if rt != nil {
		tr.timed(spRouteFinish, func() { out.fleet = rt.Finish() })
	}
	if gd != nil {
		tr.timed(spGraphFinish, func() { out.dag = gd.Finish() })
	}
	tr.timed(spCheck, func() {
		var checks []validate.Check
		for _, s := range servers {
			name := fmt.Sprintf("server%d", s.index)
			checks = append(checks,
				validate.FlowBalance(name, s.res, s.audit),
				validate.LittlesLawIdentity(name, s.res, s.audit))
		}
		if out.fleet != nil {
			checks = append(checks, out.fleet.Conservation("fleet"))
		}
		if out.dag != nil {
			checks = append(checks, validate.GraphResultConservation("graph", out.dag))
		}
		for _, c := range checks {
			if !c.OK {
				out.failed = append(out.failed, c.Name+": "+c.Detail)
			}
		}
	})
	out.wall = float64(tr.now()-begin) / 1e9
	return out, nil
}

// addServers adds every server as a traced group member, links it both
// ways to the front door (member self, when self >= 0), and installs its
// fault actions as engine events before Start, as the scenario runner does
// for routed and DAG fleets.
func addServers(tr *tracer, group *sim.ShardGroup, servers []*replServer, self int, delay sim.Duration) []int {
	members := make([]int, len(servers))
	for i, s := range servers {
		s := s
		name := spStepNoHarvest
		if s.harvest {
			name = spStepHarvest
		}
		m := group.Members()
		t := tr.member(m)
		for _, a := range sortedFaults(s.faults) {
			a := a
			s.srv.Engine().At(a.at, func() {
				if s.err != nil {
					return
				}
				st := tr.now()
				s.err = s.srv.InjectFaultPlan(a.evt.Plan, a.at)
				t.add(spInject, t.open, st, tr.now())
			})
		}
		step := func(to sim.Time) {
			if s.done {
				return
			}
			if h := s.srv.Horizon(); to > h {
				to = h
			}
			s.done = s.srv.StepTo(to)
		}
		members[i] = group.AddFunc(s.srv.Engine(), traceAdvance(tr, m, name, s.srv.Engine(), step))
		if self >= 0 {
			group.Link(self, members[i], delay)
			group.Link(members[i], self, delay)
		}
	}
	return members
}

func sortedFaults(acts []faultAct) []faultAct {
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	return acts
}

// traceAdvance wraps a member's advance function with a span and samples
// the member's engine heap size at the advance boundary. The span is open
// while the advance runs, so spans it causes can name it as their parent.
func traceAdvance(tr *tracer, member, name int, eng *sim.Engine, advance func(sim.Time)) func(sim.Time) {
	t := tr.member(member)
	return func(to sim.Time) {
		st := tr.now()
		t.open = t.add(name, -1, st, st)
		advance(to)
		t.spans[t.open].end = tr.now()
		if p := eng.Pending(); p > t.pendingMax {
			t.pendingMax = p
		}
	}
}

// routeConfig converts the routing block as the scenario runner does.
func routeConfig(r *scenario.Routing) (route.Config, error) {
	pol, err := route.ParsePolicy(r.Policy)
	if err != nil {
		return route.Config{}, err
	}
	return route.Config{
		Policy:         pol,
		NetDelay:       sim.Duration(r.NetworkDelayUS * float64(sim.Microsecond)),
		ProbeInterval:  sim.Duration(r.ProbeIntervalMS * float64(sim.Millisecond)),
		UnhealthyAfter: r.UnhealthyAfter,
		HealthyAfter:   r.HealthyAfter,
		EjectAfter:     r.EjectAfter,
		EjectBackoff:   sim.Duration(r.EjectBackoffMS * float64(sim.Millisecond)),
		MaxFailovers:   r.MaxFailovers,
	}, nil
}

package scenario

import (
	"fmt"
	"math"
	"strings"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/graph"
	"hardharvest/internal/obs"
	"hardharvest/internal/route"
	"hardharvest/internal/sim"
	"hardharvest/internal/validate"
)

// The scenario runner. A scenario compiles to one serverSpec per fleet
// server plus a sorted list of barrier-aligned control actions per server;
// each server then runs the same pause-free barrier loop a served run uses
// (Start / apply actions / StepTo / Finish), so scenario execution inherits
// the step-equivalence guarantee of DESIGN §8: the barrier cadence is a
// control-plane detail that never perturbs the simulated event sequence.
// Servers are independent (no cross-server events) and become members of a
// sim.ShardGroup — one engine per server, advanced in parallel across
// worker goroutines unless a router or dispatcher links them — with seeds
// derived exactly as RunCluster derives them. The group's conservative
// windows are independent of the worker count, so identical inputs produce
// a byte-identical summary at any -shards value, including 1.

// action kinds, in the order they apply within one barrier.
type actKind int

const (
	actIntensity actKind = iota
	actVMIntensity
	actFaults
	actResilience
	actHarvestOnBlock
)

// action is one compiled control mutation for one server.
type action struct {
	at   sim.Time
	seq  int // document order; breaks ties at a shared barrier
	kind actKind
	x    float64
	vm   int
	on   bool
	plan *faults.Plan
}

// serverSpec is one expanded fleet server.
type serverSpec struct {
	index   int
	group   *Group
	cfg     cluster.Config
	opts    cluster.Options
	work    *batch.Workload
	actions []action
}

// barrier quantizes a scenario timestamp to the first barrier at or after
// it. Validation guarantees the result lies on an in-run barrier.
func (sc *Scenario) barrier(atMS float64) sim.Time {
	step := float64(sc.StepMS)
	n := int64(math.Ceil(atMS/step - 1e-9))
	if n < 0 {
		n = 0
	}
	return sim.Time(sim.Duration(n*int64(sc.StepMS)) * sim.Millisecond)
}

// compile expands the fleet and distributes timeline entries and events to
// the servers they target as barrier-aligned actions. In routed mode the
// workload timeline (and drain events) compile to router actions instead:
// the front door owns the generators, so intensity changes land there,
// while fault/resilience/harvest toggles stay server-side. Graph mode is
// analogous: intensity entries compile to dispatcher actions against the
// root-tier generators.
func (sc *Scenario) compile() ([]*serverSpec, []route.Action, []graph.Action, error) {
	specs := make([]*serverSpec, 0, sc.Servers())
	for gi := range sc.Fleet {
		g := &sc.Fleet[gi]
		kind, err := parseSystem(g.System)
		if err != nil {
			return nil, nil, nil, err
		}
		work, err := batch.WorkloadByName(g.Workload)
		if err != nil {
			return nil, nil, nil, err
		}
		for j := 0; j < g.Count; j++ {
			i := len(specs)
			cfg := cluster.DefaultConfig()
			cfg.Seed = sc.Seed + uint64(i)*7919 // the RunCluster derivation
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
			// Hardware generation: scale every cache-warmth execution
			// factor, so a slower generation stretches CPU bursts uniformly.
			if f := g.effExecFactor(); f != 1.0 {
				cfg.WarmFactor *= f
				cfg.ReplWarmFactor *= f
				cfg.ColdFactor *= f
				cfg.PartReclaimFactor *= f
			}
			specs = append(specs, &serverSpec{
				index: i,
				group: g,
				cfg:   cfg,
				opts:  cluster.SystemOptions(kind),
				work:  work,
			})
		}
	}

	// Distribute workload-timeline entries. seq is the entry's document
	// position; events follow all timeline entries in the tiebreak order.
	// In routed mode the generators live at the front door, so each entry
	// becomes a router action against its source-server generator set; in
	// graph mode likewise, against the dispatcher's root-tier generators
	// (entries selecting only non-root servers are rejected at validation,
	// and non-root servers of a selection have no generator to act on).
	routed := sc.Routing != nil
	graphed := sc.Graph != nil
	var racts []route.Action
	var gacts []graph.Action
	for ti := range sc.Workload {
		e := &sc.Workload[ti]
		for _, s := range specs {
			if !e.Target.selects(&serverRun{index: s.index, group: s.group.Name}) {
				continue
			}
			if graphed && s.group.Name != sc.rootGroup() {
				continue
			}
			src := s.index
			switch e.Kind {
			case TlIntensity:
				if routed {
					x := e.Intensity
					racts = append(racts, route.Action{At: sc.barrier(e.AtMS), Seq: ti,
						Fn: func(rt *route.Router) { rt.SetIntensity(src, x) }})
					continue
				}
				if graphed {
					x := e.Intensity
					gacts = append(gacts, graph.Action{At: sc.barrier(e.AtMS), Seq: ti,
						Fn: func(d *graph.Dispatcher) { d.SetIntensity(src, x) }})
					continue
				}
				s.actions = append(s.actions, action{
					at: sc.barrier(e.AtMS), seq: ti, kind: actIntensity, x: e.Intensity})
			case TlVMIntensity:
				if routed {
					x, vm := e.Intensity, e.VM
					racts = append(racts, route.Action{At: sc.barrier(e.AtMS), Seq: ti,
						Fn: func(rt *route.Router) { rt.SetVMIntensity(src, vm, x) }})
					continue
				}
				s.actions = append(s.actions, action{
					at: sc.barrier(e.AtMS), seq: ti, kind: actVMIntensity, x: e.Intensity, vm: e.VM})
			case TlFlashCrowd:
				// A flash crowd multiplies the plain-intensity baseline for
				// its window: set base*factor at the start barrier, restore
				// the baseline in effect at the end barrier.
				start, end := sc.barrier(e.AtMS), sc.barrier(e.AtMS+e.DurationMS)
				hi, lo := sc.baselineAt(start, s)*e.Factor, sc.baselineAt(end, s)
				if routed {
					racts = append(racts,
						route.Action{At: start, Seq: ti, Fn: func(rt *route.Router) { rt.SetIntensity(src, hi) }},
						route.Action{At: end, Seq: ti, Fn: func(rt *route.Router) { rt.SetIntensity(src, lo) }})
					continue
				}
				if graphed {
					gacts = append(gacts,
						graph.Action{At: start, Seq: ti, Fn: func(d *graph.Dispatcher) { d.SetIntensity(src, hi) }},
						graph.Action{At: end, Seq: ti, Fn: func(d *graph.Dispatcher) { d.SetIntensity(src, lo) }})
					continue
				}
				s.actions = append(s.actions,
					action{at: start, seq: ti, kind: actIntensity, x: hi},
					action{at: end, seq: ti, kind: actIntensity, x: lo})
			}
		}
	}
	for ei := range sc.Events {
		e := &sc.Events[ei]
		for _, s := range specs {
			if !e.Target.selects(&serverRun{index: s.index, group: s.group.Name}) {
				continue
			}
			a := action{at: sc.barrier(e.AtMS), seq: len(sc.Workload) + ei}
			switch e.Kind {
			case EvFaults:
				a.kind, a.plan = actFaults, e.Plan
			case EvResilience:
				a.kind, a.on = actResilience, e.On
			case EvHarvestOnBlock:
				a.kind, a.on = actHarvestOnBlock, e.On
			case EvDrain:
				idx := s.index
				deadline := sim.Duration(e.DeadlineMS * float64(sim.Millisecond))
				racts = append(racts, route.Action{At: sc.barrier(e.AtMS), Seq: len(sc.Workload) + ei,
					Fn: func(rt *route.Router) { rt.StartDrain(idx, deadline) }})
				continue
			}
			s.actions = append(s.actions, a)
		}
	}
	for _, s := range specs {
		acts := s.actions
		// Insertion sort keeps the compile dependency-free and the order
		// total: barrier time first, then document order.
		for i := 1; i < len(acts); i++ {
			for j := i; j > 0 && (acts[j].at < acts[j-1].at ||
				(acts[j].at == acts[j-1].at && acts[j].seq < acts[j-1].seq)); j-- {
				acts[j], acts[j-1] = acts[j-1], acts[j]
			}
		}
	}
	// The same total order for router actions: barrier, then document order,
	// then fleet index (one timeline entry fans out to one action per
	// targeted source server, compiled in fleet order above).
	for i := 1; i < len(racts); i++ {
		for j := i; j > 0 && (racts[j].At < racts[j-1].At ||
			(racts[j].At == racts[j-1].At && racts[j].Seq < racts[j-1].Seq)); j-- {
			racts[j], racts[j-1] = racts[j-1], racts[j]
		}
	}
	for i := 1; i < len(gacts); i++ {
		for j := i; j > 0 && (gacts[j].At < gacts[j-1].At ||
			(gacts[j].At == gacts[j-1].At && gacts[j].Seq < gacts[j-1].Seq)); j-- {
			gacts[j], gacts[j-1] = gacts[j-1], gacts[j]
		}
	}
	return specs, racts, gacts, nil
}

// baselineAt reports the plain-intensity baseline in effect at a barrier
// for one server: the last plain "intensity" entry targeting it at or
// before t, or 1.0. Flash crowds multiply this baseline rather than
// stacking on each other.
func (sc *Scenario) baselineAt(t sim.Time, s *serverSpec) float64 {
	base := 1.0
	for ti := range sc.Workload {
		e := &sc.Workload[ti]
		if e.Kind != TlIntensity || !e.Target.selects(&serverRun{index: s.index, group: s.group.Name}) {
			continue
		}
		if sc.barrier(e.AtMS) <= t {
			base = e.Intensity
		}
	}
	return base
}

// Report is one finished scenario run.
type Report struct {
	Scenario *Scenario
	Summary  string         // deterministic, byte-replayable rendering
	Asserts  []AssertResult // declared assertions, in document order
	Failed   int            // failed assertions + failed oracle checks
	Fleet    *route.Result  // router-side results (nil for routerless runs)
	Graph    *graph.Result  // dispatcher-side results (nil without a graph block)
}

// OK reports whether every assertion and oracle check passed.
func (r *Report) OK() bool { return r.Failed == 0 }

// Run executes a validated scenario and evaluates its assertions. On top
// of the declared assertions, the oracle's flow-balance and Little's-law
// checks run on every server of the fleet unconditionally — a scenario
// cannot opt out of conservation. Fleet servers run sharded (one engine per
// server, a worker per available CPU); RunShards selects the worker count
// explicitly.
func (sc *Scenario) Run() (*Report, error) { return sc.RunShards(0) }

// srvState is one fleet server being advanced inside the shard group: the
// live server plus its barrier-loop cursor, then, once retired, its result
// and ledger. Each state is touched by exactly one advance call at a time;
// the group's window barriers order those calls.
type srvState struct {
	spec    *serverSpec
	srv     *cluster.Server // nil before build and after retire
	ledger  *obs.Ledger
	res     *cluster.ServerResult // set by retire
	barrier sim.Time
	next    int // next un-applied action
	applied int
	done    bool
	err     error
}

// build constructs the server with a fresh ledger as its observer. Fleet
// servers record latencies in bounded sketch mode; a linked (routed or DAG)
// fleet admits requests through its front door instead of local generators.
func (st *srvState) build(remote bool) {
	st.ledger = obs.NewLedger()
	opts := st.spec.opts
	opts.Observer = st.ledger
	opts.SketchLatency = true
	opts.RemoteAdmission = remote
	st.srv = cluster.NewServer(st.spec.cfg, opts, st.spec.work)
}

// retire finishes the server and drops it, so only its result and ledger
// stay live.
func (st *srvState) retire() {
	st.res = st.srv.Finish()
	st.ledger.Finish(st.res.AccountedEnd)
	st.srv = nil
}

// member is a plain-fleet server's shard-group advance. The server is built
// on the first call, on whichever worker runs it, and retired the moment it
// reaches its horizon (or dropped on an action error). The group holds no
// engine for the member, so a retired server is garbage while the rest of
// the fleet still runs: fleet memory tracks the servers in flight, not the
// servers already simulated.
func (st *srvState) member(to sim.Time) {
	if st.srv == nil {
		if st.done || st.err != nil {
			return
		}
		st.build(false)
		st.srv.Start()
	}
	st.advance(to)
	switch {
	case st.err != nil:
		st.srv = nil
	case st.done:
		st.retire()
	}
}

// advance runs the server's barrier loop up to simulated time `to`
// (inclusive): apply due actions, then step. Instead of pacing at the
// scenario step, it fast-forwards straight to the next action barrier or to
// `to` — by DESIGN §8's step-equivalence the barrier cadence never perturbs
// the event sequence, so skipping empty barriers is O(1) per gap and
// byte-neutral.
func (st *srvState) advance(to sim.Time) {
	if st.done || st.err != nil {
		return
	}
	acts := st.spec.actions
	for {
		for st.next < len(acts) && acts[st.next].at <= st.barrier {
			if err := applyAction(st.srv, acts[st.next], st.barrier); err != nil {
				st.err = err
				return
			}
			st.applied++
			st.next++
		}
		nb := to
		if h := st.srv.Horizon(); nb > h {
			nb = h
		}
		if st.next < len(acts) && acts[st.next].at < nb {
			nb = acts[st.next].at
		}
		if st.srv.StepTo(nb) {
			st.done = true
			return
		}
		if nb >= to {
			return
		}
		st.barrier = nb
	}
}

// step is the routed-mode advance: compiled actions are pre-scheduled as
// engine events (see scheduleActions), so the plain StepTo suffices. The
// barrier loop would be wrong here — it applies actions outside the event
// queue, where the group's conservative floors cannot see them, so another
// member could already hold a window grant past actionTime+lookahead when
// the action's side effects (e.g. an injected crash notifying the router)
// send it a message.
func (st *srvState) step(to sim.Time) {
	if st.done {
		return
	}
	if h := st.srv.Horizon(); to > h {
		to = h
	}
	st.done = st.srv.StepTo(to)
}

// scheduleActions installs the server's compiled actions as engine events
// so the shard group's floor computation accounts for them. An apply error
// is recorded and later actions are skipped, but the simulation keeps
// running — freezing the engine mid-group-run would stall every linked
// member's window cap.
func (st *srvState) scheduleActions() {
	for _, a := range st.spec.actions {
		a := a
		st.srv.Engine().At(a.at, func() {
			if st.err != nil {
				return
			}
			if err := applyAction(st.srv, a, a.at); err != nil {
				st.err = err
				return
			}
			st.applied++
		})
	}
}

// addPlainMembers registers one engine-less member per server of a plain
// fleet and reports the group horizon. Nothing is built yet: the horizon
// comes from the configs, and each member builds its server on its first
// advance (srvState.member).
func addPlainMembers(group *sim.ShardGroup, specs []*serverSpec) ([]*srvState, sim.Time) {
	states := make([]*srvState, len(specs))
	horizon := sim.Time(0)
	for i, s := range specs {
		_, _, _, h := s.cfg.RunWindow()
		horizon = max(horizon, h)
		states[i] = &srvState{spec: s}
		group.AddFunc(nil, states[i].member)
	}
	return states, horizon
}

// RunShards is Run with an explicit worker count: the fleet becomes a
// sim.ShardGroup with one member per server. A plain fleet's servers
// exchange no events, so every member advances to the horizon in one
// window, on up to `shards` goroutines (<= 0 selects GOMAXPROCS); each of
// its servers is built on its first advance and retired at its horizon
// (see srvState.member), so at most one server per worker is live. A routed
// or DAG fleet links its servers to the router or dispatcher; its windows
// last at most one network delay, too little work per member to hand to
// another goroutine, so they run on the calling goroutine and `shards` has
// no effect. The group's window algorithm is independent of the worker
// count, so summaries are byte-identical at any shards value. Fleet
// servers record latencies in bounded sketch mode (stats.Sketch): memory
// stays flat across thousand-server, long-horizon runs.
func (sc *Scenario) RunShards(shards int) (*Report, error) {
	specs, racts, gacts, err := sc.compile()
	if err != nil {
		return nil, err
	}
	routed := sc.Routing != nil
	graphed := sc.Graph != nil
	group := sim.NewShardGroup(shards)
	states := make([]*srvState, len(specs))
	horizon := sim.Time(0)
	var rt *route.Router
	var gd *graph.Dispatcher
	if routed {
		// Routed mode: servers are built first (arrival generation off),
		// then the router joins the group as member 0, every server links
		// to it both ways at the network delay, and Bind installs the
		// reply/crash hooks before any server starts.
		rc, cerr := sc.Routing.toConfig()
		if cerr != nil {
			return nil, cerr
		}
		backends := make([]route.Backend, len(specs))
		for i, s := range specs {
			st := &srvState{spec: s}
			st.build(true)
			st.scheduleActions()
			states[i] = st
			backends[i] = route.Backend{
				Server: st.srv, Cfg: s.cfg,
				Name:   fmt.Sprintf("server%d[%s]", s.index, s.group.Name),
				Weight: 1 / s.group.effExecFactor(),
			}
		}
		rt = route.New(rc, backends)
		self := group.AddFunc(rt.Engine(), rt.Advance)
		members := make([]int, len(states))
		for i, st := range states {
			m := group.AddFunc(st.srv.Engine(), st.step)
			group.Link(self, m, rc.NetDelay)
			group.Link(m, self, rc.NetDelay)
			members[i] = m
		}
		rt.Bind(group, self, members)
		rt.SetActions(racts)
		for _, st := range states {
			st.srv.Start()
			if h := st.srv.Horizon(); h > horizon {
				horizon = h
			}
		}
	} else if graphed {
		// Graph mode mirrors routed mode: servers are built with arrival
		// generation off, the DAG dispatcher joins the group as member 0,
		// every server links to it both ways at the RPC delay, and Bind
		// installs the reply hooks before any server starts.
		spec := sc.Graph.spec
		byGroup := make(map[string][]int, len(sc.Fleet))
		backends := make([]graph.Backend, len(specs))
		for i, s := range specs {
			st := &srvState{spec: s}
			st.build(true)
			st.scheduleActions()
			states[i] = st
			backends[i] = graph.Backend{
				Server: st.srv, Cfg: s.cfg,
				Name: fmt.Sprintf("server%d[%s]", s.index, s.group.Name),
			}
			byGroup[s.group.Name] = append(byGroup[s.group.Name], i)
		}
		tiers := make([][]int, len(spec.Tiers))
		for ti := range spec.Tiers {
			tiers[ti] = byGroup[spec.Tiers[ti].Group]
		}
		gd = graph.New(spec, backends, tiers)
		self := group.AddFunc(gd.Engine(), gd.Advance)
		members := make([]int, len(states))
		for i, st := range states {
			m := group.AddFunc(st.srv.Engine(), st.step)
			group.Link(self, m, spec.NetDelay)
			group.Link(m, self, spec.NetDelay)
			members[i] = m
		}
		gd.Bind(group, self, members)
		gd.SetActions(gacts)
		for _, st := range states {
			st.srv.Start()
			if h := st.srv.Horizon(); h > horizon {
				horizon = h
			}
		}
	} else {
		states, horizon = addPlainMembers(group, specs)
	}
	group.Run(horizon)

	runs := make([]*serverRun, 0, len(specs))
	applied := make([]int, len(specs))
	for i, st := range states {
		if st.err != nil {
			return nil, fmt.Errorf("scenario: server %d: %w", st.spec.index, st.err)
		}
		if st.srv != nil {
			st.retire() // linked members stay live until the group horizon
		}
		applied[i] = st.applied
		runs = append(runs, &serverRun{
			index: st.spec.index, group: st.spec.group.Name, res: st.res, ledger: st.ledger,
		})
	}
	var fleet *route.Result
	if routed {
		fleet = rt.Finish()
		if sc.PerturbFleet {
			fleet.Generated++ // teeth check: the conservation oracle must notice
		}
	}
	var gres *graph.Result
	var gr *graphRun
	if graphed {
		gres = gd.Finish()
		if sc.PerturbGraphMC {
			// Teeth check for the Monte-Carlo cross-check: corrupt one tier's
			// measured hop distribution so the composed tails drift away from
			// the measured end-to-end sketch while every counter ledger (and
			// with it graph conservation) stays intact.
			hop := gres.Tiers[0].Hop
			inflated := hop.Max() * 10
			for i, n := 0, hop.Count()/5+1; i < n; i++ {
				hop.Add(inflated)
			}
		}
		gr = &graphRun{sc: sc, res: gres}
	}

	rep := &Report{Scenario: sc, Fleet: fleet, Graph: gres}
	oracleOK := 0
	oracleDetail := ""
	for _, r := range runs {
		for _, name := range []string{"flow_balance", "littles_law"} {
			c := metricsByName[name].check(r)
			if c.OK {
				oracleOK++
				continue
			}
			rep.Failed++
			if oracleDetail == "" {
				oracleDetail = fmt.Sprintf("%s FAIL on server %d [%s]: %s", name, r.index, r.group, c.Detail)
			}
		}
	}
	if routed {
		// The fleet-conservation oracle is as mandatory as the per-server
		// pair: a routed scenario cannot opt out of no-silent-loss.
		if c := fleet.Conservation("fleet"); c.OK {
			oracleOK++
		} else {
			rep.Failed++
			if oracleDetail == "" {
				oracleDetail = "fleet_conservation FAIL: " + c.Detail
			}
		}
	}
	if graphed {
		// Graph conservation is equally mandatory: a shed subtree must
		// still drain its joins, and the RPC ledgers must balance.
		if c := validate.GraphResultConservation("graph", gres); c.OK {
			oracleOK++
		} else {
			rep.Failed++
			if oracleDetail == "" {
				oracleDetail = "graph_conservation FAIL: " + c.Detail
			}
		}
	}
	for _, a := range sc.Assertions {
		ar := evalAssertion(a, runs, fleet, gr)
		if !ar.OK {
			rep.Failed++
		}
		rep.Asserts = append(rep.Asserts, ar)
	}
	rep.Summary = sc.renderSummary(specs, runs, applied, rep, oracleOK, oracleDetail, fleet, gres)
	return rep, nil
}

func applyAction(srv *cluster.Server, a action, at sim.Time) error {
	switch a.kind {
	case actIntensity:
		return srv.SetIntensity(a.x)
	case actVMIntensity:
		return srv.SetVMIntensity(a.vm, a.x)
	case actFaults:
		return srv.InjectFaultPlan(a.plan, at)
	case actResilience:
		srv.SetResilienceEnabled(a.on)
		return nil
	case actHarvestOnBlock:
		srv.SetHarvestOnBlock(a.on)
		return nil
	default:
		return fmt.Errorf("unknown action kind %d", a.kind)
	}
}

// renderSummary is the single scenario renderer: a pure function of the
// run's inputs and results — no wall-clock, no map iteration, no pointers —
// so identical scenarios produce byte-identical summaries.
func (sc *Scenario) renderSummary(specs []*serverSpec, runs []*serverRun,
	applied []int, rep *Report, oracleOK int, oracleDetail string,
	routed *route.Result, graphed *graph.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== hhsim scenario summary ==\n")
	fmt.Fprintf(&b, "scenario=%s seed=%d servers=%d warmup=%dms measure=%dms step=%dms\n",
		sc.Name, sc.Seed, len(specs), sc.WarmupMS, sc.DurationMS, sc.StepMS)
	fleet := make([]string, len(sc.Fleet))
	for i := range sc.Fleet {
		g := &sc.Fleet[i]
		fleet[i] = fmt.Sprintf("%s=%dx %s/%s", g.Name, g.Count, g.System, g.Workload)
	}
	fmt.Fprintf(&b, "fleet: %s\n", strings.Join(fleet, "  "))
	if graphed != nil {
		spec := sc.Graph.spec
		tiers := make([]string, len(spec.Tiers))
		for i := range spec.Tiers {
			tiers[i] = spec.Tiers[i].Name
		}
		fmt.Fprintf(&b, "graph: root=%s rpc_delay_us=%s tiers=%s nodes=%d\n",
			spec.Tiers[spec.Root].Name, fnum(float64(spec.NetDelay)/float64(sim.Microsecond)),
			strings.Join(tiers, ","), spec.Nodes())
	}
	if routed != nil {
		r := sc.Routing
		fmt.Fprintf(&b, "routing: policy=%s net_delay_us=%s probe_ms=%s unhealthy_after=%d healthy_after=%d eject_after=%d eject_backoff_ms=%s max_failovers=%d\n",
			r.Policy, fnum(r.NetworkDelayUS), fnum(r.ProbeIntervalMS),
			r.UnhealthyAfter, r.HealthyAfter, r.EjectAfter, fnum(r.EjectBackoffMS), r.MaxFailovers)
	}
	for i, r := range runs {
		g := specs[i].group
		fmt.Fprintf(&b, "server %d [%s] cores=%d exec_factor=%s actions=%d\n",
			r.index, r.group, g.Cores, fnum(g.effExecFactor()), applied[i])
		fmt.Fprintf(&b, "  result: %s\n", r.res)
		fmt.Fprintf(&b, "  jobs=%d (%.0f/s) busy=%.2f\n",
			r.res.HarvestJobs, r.res.HarvestJobsPerSec, r.res.BusyCores)
		fmt.Fprintf(&b, "  counters: %s\n", r.ledger.Counters())
		fmt.Fprintf(&b, "  latency:  %s\n", r.ledger.Hist())
		if r.res.InvariantViolations > 0 {
			fmt.Fprintf(&b, "  INVARIANT VIOLATIONS: %d (first: %s)\n",
				r.res.InvariantViolations, r.res.FirstViolation)
		}
	}
	if routed != nil {
		fmt.Fprintf(&b, "router: generated=%d dispatched=%d (initial=%d failovers=%d) completed=%d shed=%d lost=%d (at_admit=%d) inflight=%d\n",
			routed.Generated, routed.Dispatches, routed.InitialDispatches, routed.Failovers,
			routed.Completions, routed.Sheds, routed.Lost, routed.LostAtAdmit, routed.InflightEnd)
		fmt.Fprintf(&b, "  replies: done=%d shed=%d zombie_dones=%d zombie_sheds=%d outstanding=%d\n",
			routed.DoneRecv, routed.ShedRecv, routed.ZombieDones, routed.ZombieSheds, routed.OutstandingEnd)
		fmt.Fprintf(&b, "  health: probes=%d fails=%d ejections=%d readmits=%d drains=%d\n",
			routed.Probes, routed.ProbeFails, routed.Ejections, routed.Readmits, routed.Drains)
		fmt.Fprintf(&b, "  fleet latency: p50=%sms p99=%sms n=%d\n",
			fnum(routed.FleetLatency.P50()), fnum(routed.FleetLatency.P99()), routed.FleetLatency.Count())
		for _, br := range routed.Backends {
			fmt.Fprintf(&b, "  backend %s state=%s dispatched=%d done=%d shed=%d zombies=%d failovers_out=%d lost=%d unhealthy_spells=%d crashes=%d edge_p99=%sms\n",
				br.Name, br.State, br.Dispatches, br.Dones, br.Sheds,
				br.ZombieDones+br.ZombieSheds, br.FailoversOut, br.Lost,
				br.UnhealthySpells, br.Crashes, fnum(br.EdgeLatency.P99()))
		}
	}
	if graphed != nil {
		fmt.Fprintf(&b, "dag: generated=%d completed=%d failed=%d inflight=%d\n",
			graphed.Generated, graphed.Completed, graphed.Failed, graphed.InflightEnd)
		fmt.Fprintf(&b, "  rpcs: dispatched=%d done=%d shed=%d outstanding=%d\n",
			graphed.Dispatches, graphed.DoneRecv, graphed.ShedRecv, graphed.OutstandingEnd)
		fmt.Fprintf(&b, "  e2e latency: p50=%sms p99=%sms n=%d\n",
			fnum(graphed.E2E.P50()), fnum(graphed.E2E.P99()), graphed.E2E.Count())
		for _, tr := range graphed.Tiers {
			fmt.Fprintf(&b, "  tier %s servers=%d vm=%d rpcs=%d done=%d shed=%d hop_p50=%sms hop_p99=%sms\n",
				tr.Name, tr.Servers, tr.VM, tr.Dispatches, tr.Dones, tr.Sheds,
				fnum(tr.Hop.P50()), fnum(tr.Hop.P99()))
		}
	}
	oracleTotal := 2 * len(runs)
	if routed != nil {
		oracleTotal++
	}
	if graphed != nil {
		oracleTotal++
	}
	if oracleDetail == "" {
		switch {
		case routed != nil:
			fmt.Fprintf(&b, "oracle: flow-balance+littles-law PASS on %d/%d servers; fleet conservation PASS\n",
				len(runs), len(runs))
		case graphed != nil:
			fmt.Fprintf(&b, "oracle: flow-balance+littles-law PASS on %d/%d servers; graph conservation PASS\n",
				len(runs), len(runs))
		default:
			fmt.Fprintf(&b, "oracle: flow-balance+littles-law PASS on %d/%d servers\n", len(runs), len(runs))
		}
	} else {
		fmt.Fprintf(&b, "oracle: %d/%d checks passed; first failure: %s\n",
			oracleOK, oracleTotal, oracleDetail)
	}
	if len(rep.Asserts) > 0 {
		fmt.Fprintf(&b, "assertions:\n")
		for _, ar := range rep.Asserts {
			status := "PASS"
			if !ar.OK {
				status = "FAIL"
			}
			fmt.Fprintf(&b, "  %s %s %s [%s] — %s\n",
				status, ar.Assertion.Metric, ar.Assertion.bounds(), ar.Assertion.Target, ar.Detail)
		}
	}
	verdict := "PASS"
	if rep.Failed > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "result: %s (%d assertions, %d oracle checks, %d failed)\n",
		verdict, len(rep.Asserts), oracleTotal, rep.Failed)
	return b.String()
}

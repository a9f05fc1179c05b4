// Package route is the fleet front door: a deterministic router that
// admits the scenario workload at its own ShardGroup member and dispatches
// requests to fleet servers over Link/Send edges with a fixed per-edge
// network delay, instead of each server generating arrivals in isolation.
//
// The router carries the fleet's robustness machinery: pluggable balancing
// policies (round-robin, least-outstanding, weighted by hardware
// generation), simulated-time health checks, outlier ejection (a
// consecutive-failure circuit breaker with exponential half-open
// re-admission), failover retries for requests stranded on crashed or
// ejected servers, and graceful drain. Every decision is a pure function
// of the scenario seed and the deterministic ShardGroup delivery order, so
// routed runs are byte-identical at any worker count.
//
// Request timeline: a front-door generator replicates the per-VM workload
// model of the servers it feeds (profiles, load scale, trace modulation,
// flash batches) on independent RNG streams. Each generated request is
// dispatched to one backend; the server admits it (cluster.AdmitRemote),
// runs it through its full NIC/queue/execute pipeline, and reports
// completion or shed back over the reverse edge. When a backend crashes,
// turns unhealthy, is ejected, or is drained past its deadline, the
// attempts stranded on it are re-dispatched elsewhere — bounded by the
// failover budget — while the stranded attempts keep running server-side
// (fail-stop with durable queues): their late replies are counted as
// zombies, never double-resolving a request.
package route

import (
	"fmt"

	"hardharvest/internal/cluster"
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
	"hardharvest/internal/trace"
	"hardharvest/internal/workload"
)

// genSeedSalt derives the front-door generator streams from each source
// server's seed, independent from every stream the server itself draws.
const genSeedSalt = 0x6c62272e07bb0142

// Config selects the router's policies. DefaultConfig returns the values
// the scenario layer uses when a routing block leaves a field unset.
type Config struct {
	// Policy picks the balancing policy (see Policy).
	Policy Policy
	// NetDelay is the fixed per-edge network delay and ShardGroup
	// lookahead between the router and every server, each direction.
	NetDelay sim.Duration
	// ProbeInterval is the simulated-time health-check cadence; a probe
	// round-trips one NetDelay each way and reports whether the server is
	// inside a crash window.
	ProbeInterval sim.Duration
	// UnhealthyAfter / HealthyAfter are the consecutive probe-failure and
	// probe-success streaks that flip a backend's health state.
	UnhealthyAfter int
	HealthyAfter   int
	// EjectAfter is the consecutive request-failure (shed) count that
	// trips the outlier circuit breaker; 0 disables ejection.
	EjectAfter int
	// EjectBackoff is the first re-admission delay after an ejection;
	// repeat ejections back off exponentially (x2 each, capped at 2^10).
	// Re-admission is half-open: one more failure re-ejects immediately.
	EjectBackoff sim.Duration
	// MaxFailovers bounds how many times one request may be re-dispatched
	// after its attempt was stranded on a crashed/unhealthy/ejected/
	// drained backend (the fleet-level retry budget).
	MaxFailovers int
}

// DefaultConfig returns the router defaults.
func DefaultConfig() Config {
	return Config{
		Policy:         RoundRobin,
		NetDelay:       20 * sim.Microsecond,
		ProbeInterval:  5 * sim.Millisecond,
		UnhealthyAfter: 2,
		HealthyAfter:   2,
		EjectAfter:     5,
		EjectBackoff:   20 * sim.Millisecond,
		MaxFailovers:   2,
	}
}

// Validate returns the first configuration problem with its field name.
func (c Config) Validate() error {
	switch {
	case c.Policy < RoundRobin || c.Policy > Weighted:
		return fmt.Errorf("routing.policy: unknown policy %d", int(c.Policy))
	case c.NetDelay <= 0:
		return fmt.Errorf("routing.network_delay_us: must be positive, got %v", c.NetDelay)
	case c.ProbeInterval <= 0:
		return fmt.Errorf("routing.probe_interval_ms: must be positive, got %v", c.ProbeInterval)
	case c.UnhealthyAfter <= 0:
		return fmt.Errorf("routing.unhealthy_after: must be positive, got %d", c.UnhealthyAfter)
	case c.HealthyAfter <= 0:
		return fmt.Errorf("routing.healthy_after: must be positive, got %d", c.HealthyAfter)
	case c.EjectAfter < 0:
		return fmt.Errorf("routing.eject_after: must be non-negative, got %d", c.EjectAfter)
	case c.EjectAfter > 0 && c.EjectBackoff <= 0:
		return fmt.Errorf("routing.eject_backoff_ms: must be positive with ejection on, got %v", c.EjectBackoff)
	case c.MaxFailovers < 0:
		return fmt.Errorf("routing.max_failovers: must be non-negative, got %d", c.MaxFailovers)
	}
	return nil
}

// Backend describes one fleet server the router feeds. Cfg is the config
// the server was built from: the front door replicates its workload shape
// (profiles, load scale, trace modulation) on independent streams, and
// aligns its own timeline with the server's run window.
type Backend struct {
	Server *cluster.Server
	Cfg    cluster.Config
	Name   string
	// Weight biases the Weighted policy (use 1/exec-factor so newer
	// hardware generations draw proportionally more traffic); <= 0 means 1.
	Weight float64
}

// Router event opcodes (sim.Callback).
const (
	rOpGen           int32 = iota // a: *genState — front-door arrival fired
	rOpProbeTick                  // periodic health-check round
	rOpReadmit                    // a: *backendRT — ejection backoff elapsed
	rOpDrainDeadline              // a: *backendRT — drain deadline reached
	rOpReply                      // a: *replyMsg — done/shed reply from a server
	rOpProbeReply                 // a: *probeReply — health probe answer
	rOpCrash                      // a: *crashMsg — crash/recovery notification
)

// Cross-member message payloads. One small object is allocated per message.
type dispatchMsg struct {
	vm      int
	attempt uint64
}

type replyMsg struct {
	attempt uint64
	lat     sim.Duration
	shed    bool
}

type probeMsg struct{ backend int }

type probeReply struct {
	backend int
	ok      bool
}

type crashMsg struct {
	backend int
	down    bool
}

// pendingReq is the router's view of one logical request from generation
// to resolution (completed, shed, or lost).
type pendingReq struct {
	vm       int
	born     sim.Time
	measured bool
	// nAttempts counts dispatches; cur is the current attempt's id. An
	// attempt superseded by failover stays outstanding on its old backend
	// until its zombie reply arrives.
	nAttempts   int
	cur         uint64
	outstanding int
	resolved    bool
}

// attemptRec tracks one dispatched attempt until its reply arrives.
type attemptRec struct {
	req     *pendingReq
	backend int
	sentAt  sim.Time
}

// genState is one front-door arrival generator, replicating the workload
// of one (source server, VM) pair.
type genState struct {
	src int
	vm  int
	gen *workload.Generator
	// nextAt carries the generated arrival time between scheduling and the
	// rOpGen event; the sampled invocation is discarded — phases are
	// sampled server-side on admission.
	nextAt sim.Time
}

// srcRT carries the per-source-server flash-batch state.
type srcRT struct {
	batchRNG  *stats.RNG
	batchProb float64
	batchMean float64
}

// Router is the fleet front door. It owns its own sim.Engine and joins the
// scenario's ShardGroup as a regular member; all interaction with servers
// flows over declared Link/Send edges.
type Router struct {
	cfg      Config
	eng      *sim.Engine
	group    *sim.ShardGroup
	self     int
	backends []*backendRT
	srcs     []*srcRT
	gens     []*genState

	measureStart sim.Time
	measureEnd   sim.Time
	stopArrivals sim.Time
	horizon      sim.Time

	attemptSeq uint64
	attempts   map[uint64]*attemptRec
	rr         uint64
	eligible   []int

	// Fleet counters (see Result for meanings).
	generated         uint64
	initialDispatches uint64
	dispatches        uint64
	failovers         uint64
	completions       uint64
	sheds             uint64
	lost              uint64
	lostAtAdmit       uint64
	doneRecv          uint64
	shedRecv          uint64
	zombieDones       uint64
	zombieSheds       uint64
	probes            uint64
	probeFails        uint64
	ejections         uint64
	readmits          uint64
	drains            uint64

	fleetLat *stats.Sketch
}

// New builds a router over the given backends. Every backend must share
// the same run window and primary-VM count (the scenario layer validates
// this before construction; New panics otherwise).
func New(cfg Config, specs []Backend) *Router {
	if err := cfg.Validate(); err != nil {
		panic("route: " + err.Error())
	}
	if len(specs) == 0 {
		panic("route: no backends")
	}
	rt := &Router{
		cfg:      cfg,
		eng:      sim.NewEngine(),
		attempts: make(map[uint64]*attemptRec),
		fleetLat: stats.NewSketch(),
	}
	rt.measureStart, rt.measureEnd, rt.stopArrivals, rt.horizon = specs[0].Cfg.RunWindow()
	for si, spec := range specs {
		c := spec.Cfg
		_, me, _, _ := c.RunWindow()
		if me != rt.measureEnd || c.PrimaryVMs != specs[0].Cfg.PrimaryVMs {
			panic("route: backends disagree on run window or primary-VM count")
		}
		w := spec.Weight
		if w <= 0 {
			w = 1
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("backend[%d]", si)
		}
		rt.backends = append(rt.backends, &backendRT{
			idx: si, name: name, srv: spec.Server, weight: w,
			healthy: true, edgeLat: stats.NewSketch(),
		})

		// Replicate the server's per-VM workload model on streams derived
		// from a salted root: the server's own streams stay untouched.
		profiles := c.Profiles
		if profiles == nil {
			profiles = workload.Profiles()
		}
		seriesParams := trace.DefaultSeriesParams()
		seriesParams.Steps = c.TraceSteps
		root := stats.NewRNG(c.Seed ^ genSeedSalt)
		seriesRNG := root.Split(4)
		instRNG := root.Split(5)
		rt.srcs = append(rt.srcs, &srcRT{
			batchRNG:  root.Split(6),
			batchProb: c.BurstBatchProb,
			batchMean: c.BurstBatchMean,
		})
		for i := 0; i < c.PrimaryVMs; i++ {
			p := *profiles[i]
			p.BaseRPSPerCore *= c.LoadScale
			var series []float64
			if c.TraceSteps > 0 {
				inst := trace.GenerateInstances(instRNG, 1)[0]
				series = inst.Series(seriesRNG.Split(uint64(i)), seriesParams)
			}
			rt.gens = append(rt.gens, &genState{
				src: si, vm: i,
				gen: workload.NewGenerator(&p, c.CoresPerPrimary, series, c.TraceStep, root.Split(uint64(100+i))),
			})
		}
	}
	return rt
}

// Engine exposes the router's engine for ShardGroup membership.
func (rt *Router) Engine() *sim.Engine { return rt.eng }

// Bind wires the router into its ShardGroup after membership and links are
// declared: self is the router's member index, members[i] the index of
// backend i. Bind installs each server's RemoteHooks (so call it before the
// servers Start) and schedules the router's initial events.
func (rt *Router) Bind(g *sim.ShardGroup, self int, members []int) {
	if len(members) != len(rt.backends) {
		panic("route: member count mismatch")
	}
	rt.group = g
	rt.self = self
	for i, b := range rt.backends {
		b.member = members[i]
		b.port = &port{rt: rt, b: b}
		idx := i
		b.srv.SetRemoteHooks(cluster.RemoteHooks{
			Done: func(id uint64, lat sim.Duration) {
				rt.sendReply(rt.backends[idx], &replyMsg{attempt: id, lat: lat})
			},
			Shed: func(id uint64) {
				rt.sendReply(rt.backends[idx], &replyMsg{attempt: id, shed: true})
			},
			Crash: func(down bool) {
				b := rt.backends[idx]
				g.Send(b.member, rt.self, rt.cfg.NetDelay, rt, rOpCrash,
					&crashMsg{backend: idx, down: down}, nil)
			},
		})
	}
	for _, gs := range rt.gens {
		rt.scheduleNextGen(gs)
	}
	rt.eng.ScheduleCall(rt.cfg.ProbeInterval, rt, rOpProbeTick, nil, nil)
}

func (rt *Router) sendReply(b *backendRT, m *replyMsg) {
	rt.group.Send(b.member, rt.self, rt.cfg.NetDelay, rt, rOpReply, m, nil)
}

// Action is one scheduled router reconfiguration (scenario timeline/events
// compiled for routed mode); actions apply at their time, in (At, Seq)
// order.
type Action struct {
	At  sim.Time
	Seq int
	Fn  func(*Router)
}

// SetActions installs the compiled action schedule (must be sorted by
// (At, Seq)) as engine events. Call before the group runs: the group's
// conservative windows derive member floors from pending engine events, so
// an action applied outside the event queue would be invisible to the
// window computation and could let other members advance past it.
func (rt *Router) SetActions(acts []Action) {
	for _, a := range acts {
		a := a
		rt.eng.At(a.At, func() { a.Fn(rt) })
	}
}

// Advance is the router's ShardGroup advance function: run the engine up to
// the window cap (actions are regular engine events, see SetActions).
func (rt *Router) Advance(to sim.Time) {
	if to > rt.horizon {
		to = rt.horizon
	}
	rt.eng.Run(to)
}

func (rt *Router) now() sim.Time { return rt.eng.Now() }

func (rt *Router) measuring() bool {
	t := rt.now()
	return t >= rt.measureStart && t < rt.measureEnd
}

// OnEvent dispatches the router's typed engine events (sim.Callback).
func (rt *Router) OnEvent(op int32, a, b any) {
	switch op {
	case rOpGen:
		rt.genFired(a.(*genState))
	case rOpProbeTick:
		rt.probeTick()
	case rOpReadmit:
		rt.readmit(a.(*backendRT))
	case rOpDrainDeadline:
		rt.drainDeadline(a.(*backendRT))
	case rOpReply:
		rt.onReply(a.(*replyMsg))
	case rOpProbeReply:
		rt.onProbeReply(a.(*probeReply))
	case rOpCrash:
		rt.onCrash(a.(*crashMsg))
	default:
		panic(fmt.Sprintf("route: unknown event op %d", op))
	}
}

// ---- Generation and dispatch ----

func (rt *Router) scheduleNextGen(gs *genState) {
	a := gs.gen.Next()
	if a.At >= rt.stopArrivals {
		return
	}
	gs.nextAt = a.At
	rt.eng.CallAt(a.At, rt, rOpGen, gs, nil)
}

// genFired admits one generated request (plus any correlated flash batch,
// mirroring the servers' local arrival model) and schedules the next.
func (rt *Router) genFired(gs *genState) {
	rt.admit(gs)
	src := rt.srcs[gs.src]
	if src.batchProb > 0 && src.batchRNG.Float64() < src.batchProb {
		extra := 0
		for src.batchRNG.Float64() < 1-1/src.batchMean && extra < 16 {
			extra++
		}
		for i := 0; i < extra; i++ {
			rt.admit(gs)
		}
	}
	rt.scheduleNextGen(gs)
}

// admit creates the logical request and dispatches its first attempt; with
// no eligible backend the request is lost at the door.
func (rt *Router) admit(gs *genState) {
	rt.generated++
	req := &pendingReq{vm: gs.vm, born: rt.now(), measured: rt.measuring()}
	if rt.dispatch(req) {
		rt.initialDispatches++
	} else {
		req.resolved = true
		rt.lostAtAdmit++
		rt.lost++
	}
}

// dispatch sends one attempt of req to a policy-chosen eligible backend.
func (rt *Router) dispatch(req *pendingReq) bool {
	b := rt.pick()
	if b == nil {
		return false
	}
	rt.attemptSeq++
	id := rt.attemptSeq
	rt.attempts[id] = &attemptRec{req: req, backend: b.idx, sentAt: rt.now()}
	req.cur = id
	req.nAttempts++
	req.outstanding++
	b.active = append(b.active, id)
	b.dispatches++
	rt.dispatches++
	rt.group.Send(rt.self, b.member, rt.cfg.NetDelay, b.port, pOpDispatch,
		&dispatchMsg{vm: req.vm, attempt: id}, nil)
	return true
}

// onReply resolves one attempt's fate. A reply for a superseded or already
// resolved request is a zombie: the stranded attempt kept running on its
// server and its outcome is counted but never re-resolves the request.
func (rt *Router) onReply(m *replyMsg) {
	rec := rt.attempts[m.attempt]
	if rec == nil {
		panic(fmt.Sprintf("route: reply for unknown attempt %d", m.attempt))
	}
	delete(rt.attempts, m.attempt)
	req := rec.req
	req.outstanding--
	b := rt.backends[rec.backend]
	live := !req.resolved && req.cur == m.attempt
	if m.shed {
		rt.shedRecv++
		if live {
			rt.removeActive(b, m.attempt)
			req.resolved = true
			rt.sheds++
			b.sheds++
		} else {
			rt.zombieSheds++
			b.zombieSheds++
		}
		rt.noteFailure(b)
		return
	}
	rt.doneRecv++
	b.consecFail = 0
	if live {
		rt.removeActive(b, m.attempt)
		req.resolved = true
		rt.completions++
		b.dones++
		if req.measured {
			rt.fleetLat.Add(rt.now().Sub(req.born).Milliseconds())
			b.edgeLat.Add(rt.now().Sub(rec.sentAt).Milliseconds())
		}
	} else {
		rt.zombieDones++
		b.zombieDones++
	}
}

func (rt *Router) removeActive(b *backendRT, id uint64) {
	for i, v := range b.active {
		if v == id {
			b.active = append(b.active[:i], b.active[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("route: attempt %d not active on %s", id, b.name))
}

// failoverActive re-dispatches every attempt stranded on b (crash,
// unhealthy, ejection, or drain deadline — b must already be ineligible).
// The stranded attempts stay outstanding server-side: their eventual
// replies are zombies. Requests out of failover budget, or with no
// eligible backend left, are lost.
func (rt *Router) failoverActive(b *backendRT) {
	if len(b.active) == 0 {
		return
	}
	stranded := append([]uint64(nil), b.active...)
	b.active = b.active[:0]
	for _, id := range stranded {
		req := rt.attempts[id].req
		if req.nAttempts <= rt.cfg.MaxFailovers && rt.dispatch(req) {
			rt.failovers++
			b.failoversOut++
		} else {
			req.resolved = true
			rt.lost++
			b.lost++
		}
	}
}

// ---- Scenario-facing reconfiguration ----

// SetIntensity scales every generator fed by source server src (x > 0).
func (rt *Router) SetIntensity(src int, x float64) {
	for _, gs := range rt.gens {
		if gs.src == src {
			gs.gen.SetIntensity(x)
		}
	}
}

// SetVMIntensity scales one (source server, VM) generator.
func (rt *Router) SetVMIntensity(src, vm int, x float64) {
	for _, gs := range rt.gens {
		if gs.src == src && gs.vm == vm {
			gs.gen.SetIntensity(x)
		}
	}
}

// Intensity reports one (source server, VM) generator's current intensity.
func (rt *Router) Intensity(src, vm int) float64 {
	for _, gs := range rt.gens {
		if gs.src == src && gs.vm == vm {
			return gs.gen.Intensity()
		}
	}
	return 0
}

// StartDrain begins a graceful drain of backend idx: new dispatch stops
// now, in-flight attempts may finish until the deadline, and whatever
// remains then fails over. Idempotent while a drain is in progress.
func (rt *Router) StartDrain(idx int, deadline sim.Duration) {
	b := rt.backends[idx]
	if b.draining || b.drained {
		return
	}
	b.draining = true
	b.drains++
	rt.drains++
	rt.eng.ScheduleCall(deadline, rt, rOpDrainDeadline, b, nil)
}

func (rt *Router) drainDeadline(b *backendRT) {
	if !b.draining {
		return // a crash emptied the backend first
	}
	b.draining = false
	b.drained = true
	rt.failoverActive(b)
}

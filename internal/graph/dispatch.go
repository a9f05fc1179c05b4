package graph

import (
	"fmt"

	"hardharvest/internal/cluster"
	"hardharvest/internal/sim"
	"hardharvest/internal/stats"
	"hardharvest/internal/trace"
	"hardharvest/internal/workload"
)

// genSeedSalt derives the root-tier arrival generator streams from each
// root server's seed — distinct from both the server's own remote stream
// salt (cluster) and the front-door router salt (route), so graph runs
// never replay another subsystem's randomness.
const genSeedSalt = 0x9e3779b97f4a7c55

// Backend describes one fleet server serving some tier of the DAG. Cfg is
// the config the server was built from; root-tier backends additionally
// seed the dispatcher's arrival generators from it.
type Backend struct {
	Server *cluster.Server
	Cfg    cluster.Config
	Name   string
}

// Dispatcher event opcodes (sim.Callback).
const (
	gOpGen   int32 = iota // a: *genState — root arrival fired
	gOpReply              // a: *replyMsg — done/shed reply from a server
	gOpRoot               // explicit ScheduleRoot admission (test hook)
)

// Cross-member message payloads (one allocation each).
type dispatchMsg struct {
	vm      int
	attempt uint64
}

type replyMsg struct {
	attempt uint64
	lat     sim.Duration
	shed    bool
}

// request is one end-to-end DAG request from root admission to the
// completion of its whole invocation tree.
type request struct {
	born     sim.Time
	measured bool
	// failed flips when any invocation is shed; the request still drains
	// (join bookkeeping completes) but counts as failed and records no
	// latency.
	failed bool
	// hops collects per-invocation hop records for OnComplete observers;
	// nil unless an observer is installed.
	hops []Hop
}

// node is one live tier invocation of a request's expansion: it pays one
// RPC to a server of its tier, then walks its call stages, spawning child
// nodes and joining on their subtrees.
type node struct {
	req    *request
	parent *node
	tier   int

	// Stage cursor. stage indexes the tier's stage list; outstanding
	// counts child subtrees in flight in the current stage; seqLeft counts
	// the sequential invocations still to issue after the one in flight.
	stage       int
	outstanding int
	seqLeft     int
}

// rpcRec tracks one dispatched invocation RPC until its reply arrives.
type rpcRec struct {
	n      *node
	sentAt sim.Time
}

// genState is one root-tier arrival generator, replicating the workload
// of the root tier's VM on one root server.
type genState struct {
	src    int // fleet index of the root server this generator models
	srcIdx int // index into d.srcs (flash-batch state)
	gen    *workload.Generator
	nextAt sim.Time
}

// srcRT carries the per-root-server flash-batch state.
type srcRT struct {
	batchRNG  *stats.RNG
	batchProb float64
	batchMean float64
}

// backendRT is the dispatcher's runtime view of one fleet server.
type backendRT struct {
	idx    int
	name   string
	srv    *cluster.Server
	member int
	port   *port
}

// port runs on the backend's ShardGroup member and bridges dispatch
// messages into the server (sim.Callback, server engine).
type port struct {
	b *backendRT
}

func (p *port) OnEvent(op int32, a, b any) {
	m := a.(*dispatchMsg)
	_ = op
	p.b.srv.AdmitRemote(m.vm, m.attempt)
}

// tierRT aggregates one tier's runtime state and counters.
type tierRT struct {
	name     string
	vm       int
	servers  []int // indices into d.backends, dispatch targets
	rr       uint64
	stages   []stage
	nodeSize int // expanded subtree size rooted at this tier

	dispatches uint64
	dones      uint64
	sheds      uint64
	hop        *stats.Sketch
}

// Hop is one resolved invocation RPC, reported to OnComplete observers.
type Hop struct {
	Tier    string
	Latency sim.Duration
	Shed    bool
}

// Dispatcher executes one Spec's request DAG over a fleet. It owns its
// own sim.Engine and joins the fleet's ShardGroup as a regular member;
// every RPC and reply crosses a declared Link/Send edge at NetDelay
// lookahead, so graph runs are byte-identical at any worker count.
//
// All RPCs originate at the dispatcher: a tier invocation's children are
// dispatched when its reply arrives, each paying one NetDelay hop out and
// one back. For the shapes the spec can express this is equivalent to
// decentralized tier-to-tier RPC with the same per-hop delay — every
// invocation pays exactly 2·NetDelay plus its server latency either way —
// while keeping the join state machine on one deterministic member.
type Dispatcher struct {
	spec     *Spec
	eng      *sim.Engine
	group    *sim.ShardGroup
	self     int
	backends []*backendRT
	tiers    []*tierRT
	srcs     []*srcRT
	gens     []*genState

	measureStart sim.Time
	measureEnd   sim.Time
	stopArrivals sim.Time
	horizon      sim.Time

	attemptSeq uint64
	attempts   map[uint64]*rpcRec

	generated   uint64
	completed   uint64
	failed      uint64
	inflight    uint64
	dispatches  uint64
	doneRecv    uint64
	shedRecv    uint64
	outstanding uint64

	e2e *stats.Sketch

	// onComplete, when set, observes every drained request (test hook).
	onComplete func(e2e sim.Duration, failed bool, hops []Hop)
}

// New builds a dispatcher for spec over the fleet's servers. tiers[i]
// lists, per spec tier, the indices into backends of the servers that
// serve it (every tier needs at least one; a server may serve several
// tiers). Every backend must share the same run window, and each tier's
// VM must be a primary VM of its servers — the scenario layer validates
// this; New panics otherwise.
func New(spec *Spec, backends []Backend, tiers [][]int) *Dispatcher {
	if err := spec.Validate(); err != nil {
		panic("graph: " + err.Error())
	}
	if len(tiers) != len(spec.Tiers) {
		panic("graph: tier/server map length mismatch")
	}
	if len(backends) == 0 {
		panic("graph: no backends")
	}
	d := &Dispatcher{
		spec:     spec,
		eng:      sim.NewEngine(),
		attempts: make(map[uint64]*rpcRec),
		e2e:      stats.NewSketch(),
	}
	d.measureStart, d.measureEnd, d.stopArrivals, d.horizon = backends[0].Cfg.RunWindow()
	for si, bk := range backends {
		_, me, _, _ := bk.Cfg.RunWindow()
		if me != d.measureEnd {
			panic("graph: backends disagree on run window")
		}
		name := bk.Name
		if name == "" {
			name = fmt.Sprintf("backend[%d]", si)
		}
		d.backends = append(d.backends, &backendRT{idx: si, name: name, srv: bk.Server})
	}
	sizes := make([]int, len(spec.Tiers))
	spec.nodes(spec.Root, sizes)
	for ti := range spec.Tiers {
		t := &spec.Tiers[ti]
		if len(tiers[ti]) == 0 {
			panic(fmt.Sprintf("graph: tier %q has no servers", t.Name))
		}
		for _, bi := range tiers[ti] {
			if bi < 0 || bi >= len(backends) {
				panic(fmt.Sprintf("graph: tier %q server index %d out of range", t.Name, bi))
			}
			if t.VM >= backends[bi].Cfg.PrimaryVMs {
				panic(fmt.Sprintf("graph: tier %q vm %d not a primary VM of %s", t.Name, t.VM, d.backends[bi].name))
			}
		}
		d.tiers = append(d.tiers, &tierRT{
			name:     t.Name,
			vm:       t.VM,
			servers:  append([]int(nil), tiers[ti]...),
			stages:   stagesOf(t),
			nodeSize: sizes[ti],
			hop:      stats.NewSketch(),
		})
	}

	// Root arrival generators: replicate the root tier's VM workload of
	// each root server on streams derived from a salted root, mirroring
	// how servers would have generated local arrivals for that VM.
	rootVM := spec.Tiers[spec.Root].VM
	for _, bi := range tiers[spec.Root] {
		c := backends[bi].Cfg
		profiles := c.Profiles
		if profiles == nil {
			profiles = workload.Profiles()
		}
		seriesParams := trace.DefaultSeriesParams()
		seriesParams.Steps = c.TraceSteps
		root := stats.NewRNG(c.Seed ^ genSeedSalt)
		seriesRNG := root.Split(4)
		instRNG := root.Split(5)
		d.srcs = append(d.srcs, &srcRT{
			batchRNG:  root.Split(6),
			batchProb: c.BurstBatchProb,
			batchMean: c.BurstBatchMean,
		})
		p := *profiles[rootVM]
		p.BaseRPSPerCore *= c.LoadScale
		var series []float64
		if c.TraceSteps > 0 {
			inst := trace.GenerateInstances(instRNG, 1)[0]
			series = inst.Series(seriesRNG.Split(uint64(rootVM)), seriesParams)
		}
		d.gens = append(d.gens, &genState{
			src: bi, srcIdx: len(d.srcs) - 1,
			gen: workload.NewGenerator(&p, c.CoresPerPrimary, series, c.TraceStep, root.Split(uint64(100+rootVM))),
		})
	}
	return d
}

// Engine exposes the dispatcher's engine for ShardGroup membership.
func (d *Dispatcher) Engine() *sim.Engine { return d.eng }

// Bind wires the dispatcher into its ShardGroup after membership and
// links are declared: self is the dispatcher's member index, members[i]
// the member of backend i. Bind installs each server's RemoteHooks (call
// it before the servers Start) and schedules the root generators.
func (d *Dispatcher) Bind(g *sim.ShardGroup, self int, members []int) {
	if len(members) != len(d.backends) {
		panic("graph: member count mismatch")
	}
	d.group = g
	d.self = self
	for i, b := range d.backends {
		b.member = members[i]
		b.port = &port{b: b}
		bb := b
		b.srv.SetRemoteHooks(cluster.RemoteHooks{
			Done: func(id uint64, lat sim.Duration) {
				g.Send(bb.member, d.self, d.spec.NetDelay, d, gOpReply,
					&replyMsg{attempt: id, lat: lat}, nil)
			},
			Shed: func(id uint64) {
				g.Send(bb.member, d.self, d.spec.NetDelay, d, gOpReply,
					&replyMsg{attempt: id, shed: true}, nil)
			},
		})
	}
	for _, gs := range d.gens {
		d.scheduleNextGen(gs)
	}
}

// OnComplete installs a per-request observer (test hook): fn sees every
// drained request's end-to-end latency, failure flag, and per-invocation
// hop records in reply order. Install before the group runs.
func (d *Dispatcher) OnComplete(fn func(e2e sim.Duration, failed bool, hops []Hop)) {
	d.onComplete = fn
}

// Action is one scheduled dispatcher reconfiguration (scenario timeline
// compiled for graph mode); actions apply at their time, in (At, Seq)
// order.
type Action struct {
	At  sim.Time
	Seq int
	Fn  func(*Dispatcher)
}

// SetActions installs the compiled action schedule (sorted by (At, Seq))
// as engine events, so the ShardGroup's conservative windows account for
// them (see route.Router.SetActions for the argument).
func (d *Dispatcher) SetActions(acts []Action) {
	for _, a := range acts {
		a := a
		d.eng.At(a.At, func() { a.Fn(d) })
	}
}

// Advance is the dispatcher's ShardGroup advance function.
func (d *Dispatcher) Advance(to sim.Time) {
	if to > d.horizon {
		to = d.horizon
	}
	d.eng.Run(to)
}

func (d *Dispatcher) now() sim.Time { return d.eng.Now() }

func (d *Dispatcher) measuring() bool {
	t := d.now()
	return t >= d.measureStart && t < d.measureEnd
}

// OnEvent dispatches the dispatcher's typed engine events (sim.Callback).
func (d *Dispatcher) OnEvent(op int32, a, b any) {
	switch op {
	case gOpGen:
		d.genFired(a.(*genState))
	case gOpReply:
		d.onReply(a.(*replyMsg))
	case gOpRoot:
		d.admitRoot()
	default:
		panic(fmt.Sprintf("graph: unknown event op %d", op))
	}
}

// SetIntensity scales every root generator modeled on root server src.
func (d *Dispatcher) SetIntensity(src int, x float64) {
	for _, gs := range d.gens {
		if gs.src == src {
			gs.gen.SetIntensity(x)
		}
	}
}

// Spec returns the DAG the dispatcher executes.
func (d *Dispatcher) Spec() *Spec { return d.spec }

// SetIntensityAll scales every root generator (the fleet-wide load knob).
func (d *Dispatcher) SetIntensityAll(x float64) {
	for _, gs := range d.gens {
		gs.gen.SetIntensity(x)
	}
}

// Intensity reports the generator intensity for root server src (0 when
// src hosts no root generator).
func (d *Dispatcher) Intensity(src int) float64 {
	for _, gs := range d.gens {
		if gs.src == src {
			return gs.gen.Intensity()
		}
	}
	return 0
}

// ---- Root generation ----

func (d *Dispatcher) scheduleNextGen(gs *genState) {
	a := gs.gen.Next()
	if a.At >= d.stopArrivals {
		return
	}
	gs.nextAt = a.At
	d.eng.CallAt(a.At, d, gOpGen, gs, nil)
}

// genFired admits one root request (plus any correlated flash batch,
// mirroring the servers' local arrival model) and schedules the next.
func (d *Dispatcher) genFired(gs *genState) {
	d.admitRoot()
	src := d.srcs[gs.srcIdx]
	if src.batchProb > 0 && src.batchRNG.Float64() < src.batchProb {
		extra := 0
		for src.batchRNG.Float64() < 1-1/src.batchMean && extra < 16 {
			extra++
		}
		for i := 0; i < extra; i++ {
			d.admitRoot()
		}
	}
	d.scheduleNextGen(gs)
}

// ScheduleRoot admits one root request at absolute time at (engine
// event). Test hook for deterministic single-request runs; the scenario
// path admits through the generators instead.
func (d *Dispatcher) ScheduleRoot(at sim.Time) {
	d.eng.CallAt(at, d, gOpRoot, nil, nil)
}

func (d *Dispatcher) admitRoot() {
	d.generated++
	d.inflight++
	req := &request{born: d.now(), measured: d.measuring()}
	if d.onComplete != nil {
		req.hops = make([]Hop, 0, 8)
	}
	root := &node{req: req, tier: d.spec.Root}
	d.dispatchRPC(root)
}

// ---- RPC dispatch and the join state machine ----

// dispatchRPC sends node n's own invocation to the next server of its
// tier (per-tier round robin).
func (d *Dispatcher) dispatchRPC(n *node) {
	t := d.tiers[n.tier]
	b := d.backends[t.servers[int(t.rr)%len(t.servers)]]
	t.rr++
	d.attemptSeq++
	id := d.attemptSeq
	d.attempts[id] = &rpcRec{n: n, sentAt: d.now()}
	t.dispatches++
	d.dispatches++
	d.outstanding++
	d.group.Send(d.self, b.member, d.spec.NetDelay, b.port, 0,
		&dispatchMsg{vm: t.vm, attempt: id}, nil)
}

// onReply resolves one invocation RPC: record the hop, then either walk
// the node's call stages (done) or short-circuit the subtree (shed — the
// request is marked failed, the node completes without issuing calls, and
// the join bookkeeping drains normally).
func (d *Dispatcher) onReply(m *replyMsg) {
	rec := d.attempts[m.attempt]
	if rec == nil {
		panic(fmt.Sprintf("graph: reply for unknown attempt %d", m.attempt))
	}
	delete(d.attempts, m.attempt)
	d.outstanding--
	n := rec.n
	t := d.tiers[n.tier]
	if n.req.hops != nil {
		n.req.hops = append(n.req.hops, Hop{Tier: t.name, Latency: d.now().Sub(rec.sentAt), Shed: m.shed})
	}
	if m.shed {
		d.shedRecv++
		t.sheds++
		n.req.failed = true
		d.completeNode(n)
		return
	}
	d.doneRecv++
	t.dones++
	if n.req.measured {
		t.hop.Add(d.now().Sub(rec.sentAt).Milliseconds())
	}
	n.stage = -1
	d.nextStage(n)
}

// nextStage advances n to its next call stage, spawning its children; a
// node past its last stage is complete.
func (d *Dispatcher) nextStage(n *node) {
	t := d.tiers[n.tier]
	n.stage++
	if n.stage >= len(t.stages) {
		d.completeNode(n)
		return
	}
	st := t.stages[n.stage]
	if st.par != nil {
		for _, c := range st.par {
			for k := 0; k < c.Fanout; k++ {
				n.outstanding++
				d.dispatchRPC(&node{req: n.req, parent: n, tier: c.Tier})
			}
		}
		return
	}
	n.outstanding = 1
	n.seqLeft = st.seq.Fanout - 1
	d.dispatchRPC(&node{req: n.req, parent: n, tier: st.seq.Tier})
}

// completeNode marks n's subtree complete and propagates the join upward;
// a completed root drains the request.
func (d *Dispatcher) completeNode(n *node) {
	p := n.parent
	if p == nil {
		d.inflight--
		req := n.req
		e2e := d.now().Sub(req.born)
		if req.failed {
			d.failed++
		} else {
			d.completed++
			if req.measured {
				d.e2e.Add(e2e.Milliseconds())
			}
		}
		if d.onComplete != nil {
			d.onComplete(e2e, req.failed, req.hops)
		}
		return
	}
	if p.seqLeft > 0 {
		p.seqLeft--
		d.dispatchRPC(&node{req: p.req, parent: p, tier: d.tiers[p.tier].stages[p.stage].seq.Tier})
		return
	}
	p.outstanding--
	if p.outstanding == 0 {
		d.nextStage(p)
	}
}

package scenario

import (
	"fmt"
	"sort"
	"strings"

	"hardharvest/internal/cluster"
	"hardharvest/internal/graph"
	"hardharvest/internal/obs"
	"hardharvest/internal/route"
	"hardharvest/internal/validate"
)

// serverRun is one finished server of the fleet: its result plus the
// ledger the runner attached, which re-derives the oracle's quantities from
// the event stream independently of the result.
type serverRun struct {
	index  int // fleet index
	group  string
	res    *cluster.ServerResult
	ledger *obs.Ledger
}

// metricDef describes one assertable metric. Numeric metrics expose a
// per-server value checked against min/max bounds; oracle checks expose a
// pass/fail verdict with a detail string and take no bounds.
type metricDef struct {
	name string
	help string
	// eval computes a numeric metric's value for one server.
	eval func(r *serverRun) float64
	// check runs an oracle check for one server (nil for numeric metrics).
	check func(r *serverRun) validate.Check
	// fleetEval / fleetCheck evaluate against the router's result instead of
	// a server; such metrics require a routing block and take no target.
	fleetEval  func(rr *route.Result) float64
	fleetCheck func(rr *route.Result) validate.Check
	// graphEval / graphCheck evaluate against the DAG dispatcher's run;
	// such metrics require a graph block and take no target. tierEval
	// evaluates one tier selected by the assertion's tier field.
	graphEval  func(gr *graphRun) float64
	graphCheck func(gr *graphRun) validate.Check
	tierEval   func(tr *graph.TierResult) float64
}

// graphRun is the DAG dispatcher's finished run plus the scenario it ran
// under (the Monte-Carlo cross-check re-derives the composition from the
// scenario's spec and seed).
type graphRun struct {
	sc  *Scenario
	res *graph.Result
}

// mcSeedSalt derives the Monte-Carlo cross-check's sampling stream from
// the scenario seed, independent of every simulation stream.
const mcSeedSalt = 0x2545f4914f6cdd1d

// fleet reports whether the metric evaluates at the fleet front door.
func (d metricDef) fleet() bool { return d.fleetEval != nil || d.fleetCheck != nil }

// graph reports whether the metric evaluates at the DAG dispatcher.
func (d metricDef) graph() bool { return d.graphEval != nil || d.graphCheck != nil }

// tier reports whether the metric evaluates one DAG tier.
func (d metricDef) tier() bool { return d.tierEval != nil }

func msOf(q float64) func(r *serverRun) float64 {
	return func(r *serverRun) float64 {
		return r.ledger.Hist().Quantile(q).Milliseconds()
	}
}

// metricCatalog lists every metric assertions may reference, in display
// order. The names are the public scenario-format vocabulary — renaming one
// breaks shipped scenarios.
var metricCatalog = []metricDef{
	{name: "p50_ms", help: "median end-to-end request latency (milliseconds)", eval: msOf(0.50)},
	{name: "p95_ms", help: "95th-percentile request latency (milliseconds)", eval: msOf(0.95)},
	{name: "p99_ms", help: "99th-percentile request latency (milliseconds)", eval: msOf(0.99)},
	{name: "mean_ms", help: "mean request latency (milliseconds)", eval: func(r *serverRun) float64 {
		return r.ledger.Hist().Mean().Milliseconds()
	}},
	{name: "arrivals", help: "requests that entered the server in the measurement window", eval: func(r *serverRun) float64 {
		return float64(r.res.Arrivals)
	}},
	{name: "completions", help: "requests completed in the measurement window", eval: func(r *serverRun) float64 {
		return float64(r.res.Requests)
	}},
	{name: "sheds", help: "load-shed requests", eval: func(r *serverRun) float64 {
		return float64(r.res.Sheds)
	}},
	{name: "shed_fraction", help: "sheds / arrivals (0 when nothing arrived)", eval: func(r *serverRun) float64 {
		if r.res.Arrivals == 0 {
			return 0
		}
		return float64(r.res.Sheds) / float64(r.res.Arrivals)
	}},
	{name: "deadline_misses", help: "requests that exhausted their retry budget", eval: func(r *serverRun) float64 {
		return float64(r.res.DeadlineMisses)
	}},
	{name: "retries", help: "retry attempts issued by the resilience policy", eval: func(r *serverRun) float64 {
		return float64(r.res.Retries)
	}},
	{name: "hedges", help: "hedge attempts issued by the resilience policy", eval: func(r *serverRun) float64 {
		return float64(r.res.Hedges)
	}},
	{name: "faults_injected", help: "fault events that fired on the server", eval: func(r *serverRun) float64 {
		return float64(r.res.FaultsInjected)
	}},
	{name: "jobs_done", help: "Harvest VM batch jobs completed", eval: func(r *serverRun) float64 {
		return float64(r.res.HarvestJobs)
	}},
	{name: "jobs_per_sec", help: "Harvest VM batch throughput (jobs/s)", eval: func(r *serverRun) float64 {
		return r.res.HarvestJobsPerSec
	}},
	{name: "busy_cores", help: "time-averaged busy core count", eval: func(r *serverRun) float64 {
		return r.res.BusyCores
	}},
	{name: "reassigns", help: "core movements between VMs", eval: func(r *serverRun) float64 {
		return float64(r.res.Reassigns)
	}},
	{name: "invariant_violations", help: "violations tolerated by the always-on checker", eval: func(r *serverRun) float64 {
		return float64(r.res.InvariantViolations)
	}},
	{name: "fleet_generated", help: "requests created at the fleet front door (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return float64(rr.Generated) }},
	{name: "fleet_completions", help: "requests completed fleet-wide through the router (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return float64(rr.Completions) }},
	{name: "fleet_sheds", help: "requests shed fleet-wide at backend admission (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return float64(rr.Sheds) }},
	{name: "lost", help: "requests lost: failover budget or eligible fleet exhausted (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return float64(rr.Lost) }},
	{name: "failovers", help: "stranded attempts re-dispatched to another server (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return float64(rr.Failovers) }},
	{name: "ejections", help: "outlier-ejection circuit-breaker trips (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return float64(rr.Ejections) }},
	{name: "readmits", help: "half-open re-admissions after ejection backoff (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return float64(rr.Readmits) }},
	{name: "drains", help: "graceful drains started at the router (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return float64(rr.Drains) }},
	{name: "zombie_completions", help: "completions for superseded attempts after failover (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return float64(rr.ZombieDones) }},
	{name: "fleet_p50_ms", help: "median fleet end-to-end latency at the router (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return rr.FleetLatency.P50() }},
	{name: "fleet_p99_ms", help: "99th-percentile fleet end-to-end latency at the router (requires routing)",
		fleetEval: func(rr *route.Result) float64 { return rr.FleetLatency.P99() }},
	{name: "fleet_conservation", help: "oracle check: the six routed-fleet conservation identities (requires routing)",
		fleetCheck: func(rr *route.Result) validate.Check { return rr.Conservation("fleet") }},
	{name: "graph_generated", help: "root DAG requests admitted at the dispatcher (requires graph)",
		graphEval: func(gr *graphRun) float64 { return float64(gr.res.Generated) }},
	{name: "graph_completed", help: "DAG requests whose whole invocation tree completed (requires graph)",
		graphEval: func(gr *graphRun) float64 { return float64(gr.res.Completed) }},
	{name: "graph_failed", help: "DAG requests drained with at least one shed invocation (requires graph)",
		graphEval: func(gr *graphRun) float64 { return float64(gr.res.Failed) }},
	{name: "graph_rpcs", help: "tier invocations dispatched across the DAG (requires graph)",
		graphEval: func(gr *graphRun) float64 { return float64(gr.res.Dispatches) }},
	{name: "graph_p50_ms", help: "median end-to-end DAG latency: root admission to tree completion (requires graph)",
		graphEval: func(gr *graphRun) float64 { return gr.res.E2E.P50() }},
	{name: "graph_p99_ms", help: "99th-percentile end-to-end DAG latency (requires graph)",
		graphEval: func(gr *graphRun) float64 { return gr.res.E2E.P99() }},
	{name: "graph_mean_ms", help: "mean end-to-end DAG latency (requires graph)",
		graphEval: func(gr *graphRun) float64 { return gr.res.E2E.Mean() }},
	{name: "tier_rpcs", help: "invocations dispatched to one DAG tier (requires graph + tier)",
		tierEval: func(tr *graph.TierResult) float64 { return float64(tr.Dispatches) }},
	{name: "tier_sheds", help: "invocations shed by one DAG tier's servers (requires graph + tier)",
		tierEval: func(tr *graph.TierResult) float64 { return float64(tr.Sheds) }},
	{name: "tier_p50_ms", help: "median per-hop latency through one DAG tier (requires graph + tier)",
		tierEval: func(tr *graph.TierResult) float64 { return tr.Hop.P50() }},
	{name: "tier_p99_ms", help: "99th-percentile per-hop latency through one DAG tier (requires graph + tier)",
		tierEval: func(tr *graph.TierResult) float64 { return tr.Hop.P99() }},
	{name: "tier_mean_ms", help: "mean per-hop latency through one DAG tier (requires graph + tier)",
		tierEval: func(tr *graph.TierResult) float64 { return tr.Hop.Mean() }},
	{name: "graph_conservation", help: "oracle check: the six request-DAG conservation identities (requires graph)",
		graphCheck: func(gr *graphRun) validate.Check { return validate.GraphResultConservation("graph", gr.res) }},
	{name: "graph_mc", help: "oracle check: end-to-end tails match the Monte-Carlo critical-path composition (requires graph; declare only on no-queueing scenarios)",
		graphCheck: func(gr *graphRun) validate.Check {
			return validate.GraphMC("graph/mc", gr.sc.Graph.spec.ToApp(gr.sc.Name),
				gr.res.HopSketches(), gr.res.E2E, validate.GraphMCTrials, gr.sc.Seed^mcSeedSalt)
		}},
	{name: "flow_balance", help: "oracle check: event-stream flow equals simulator counters exactly",
		check: func(r *serverRun) validate.Check {
			return validate.FlowBalance(fmt.Sprintf("server%d", r.index), r.res, &r.ledger.Audit)
		}},
	{name: "littles_law", help: "oracle check: exact Little's-law identity over the audited span",
		check: func(r *serverRun) validate.Check {
			return validate.LittlesLawIdentity(fmt.Sprintf("server%d", r.index), r.res, &r.ledger.Audit)
		}},
}

// metricsByName indexes the catalog.
var metricsByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricCatalog))
	for _, d := range metricCatalog {
		m[d.name] = d
	}
	return m
}()

// metricNames lists the catalog names, sorted, for diagnostics.
func metricNames() string {
	names := make([]string, 0, len(metricCatalog))
	for _, d := range metricCatalog {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// AssertResult is one evaluated assertion: for numeric metrics, the worst
// (closest-to-violating or violating) server and its value; for oracle
// checks, the first failing server's detail.
type AssertResult struct {
	Assertion Assertion
	OK        bool
	Detail    string
}

// bounds renders an assertion's bound expression deterministically.
func (a Assertion) bounds() string {
	switch {
	case a.Min != nil && a.Max != nil:
		return fmt.Sprintf("in [%s, %s]", fnum(*a.Min), fnum(*a.Max))
	case a.Min != nil:
		return ">= " + fnum(*a.Min)
	case a.Max != nil:
		return "<= " + fnum(*a.Max)
	default:
		return "holds"
	}
}

// fnum formats a float deterministically with no trailing-zero noise.
func fnum(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// selected reports whether a server run matches an assertion target.
func (t Target) selects(r *serverRun) bool {
	switch {
	case t.Group != "":
		return r.group == t.Group
	case t.Server >= 0:
		return r.index == t.Server
	default:
		return true
	}
}

// evalAssertion checks one assertion against the fleet. Numeric bounds must
// hold on every selected server; oracle checks must pass on every selected
// server. Fleet metrics evaluate once against the router's result; graph
// and tier metrics once against the DAG dispatcher's.
func evalAssertion(a Assertion, runs []*serverRun, fleet *route.Result, gr *graphRun) AssertResult {
	def := metricsByName[a.Metric] // validated during Parse
	out := AssertResult{Assertion: a, OK: true}
	if def.graph() || def.tier() {
		// Validation guarantees gr != nil here (graph block required).
		if def.graphCheck != nil {
			c := def.graphCheck(gr)
			out.OK = c.OK
			out.Detail = c.Detail
			return out
		}
		var v float64
		var what string
		if def.tier() {
			v = def.tierEval(gr.res.TierByName(a.Tier))
			what = fmt.Sprintf("tier %s %s", a.Tier, a.Metric)
		} else {
			v = def.graphEval(gr)
			what = "graph " + a.Metric
		}
		if (a.Min != nil && v < *a.Min) || (a.Max != nil && v > *a.Max) {
			out.OK = false
		}
		out.Detail = fmt.Sprintf("%s=%s", what, fnum(v))
		return out
	}
	if def.fleet() {
		// Validation guarantees fleet != nil here (routing block required).
		if def.fleetCheck != nil {
			c := def.fleetCheck(fleet)
			out.OK = c.OK
			out.Detail = c.Detail
			return out
		}
		v := def.fleetEval(fleet)
		if (a.Min != nil && v < *a.Min) || (a.Max != nil && v > *a.Max) {
			out.OK = false
		}
		out.Detail = fmt.Sprintf("fleet %s=%s", a.Metric, fnum(v))
		return out
	}
	if def.check != nil {
		for _, r := range runs {
			if !a.Target.selects(r) {
				continue
			}
			c := def.check(r)
			if !c.OK {
				out.OK = false
				out.Detail = fmt.Sprintf("server %d [%s]: %s", r.index, r.group, c.Detail)
				return out
			}
		}
		out.Detail = "holds on every selected server"
		return out
	}
	// Numeric: every selected server must satisfy the bounds. The detail
	// line reports the binding extreme — the largest value under a max
	// bound, the smallest under a min-only bound — or the worst violation.
	var pick *serverRun
	var pickV, worstDist float64
	for _, r := range runs {
		if !a.Target.selects(r) {
			continue
		}
		v := def.eval(r)
		viol := 0.0
		if a.Min != nil && v < *a.Min {
			viol = *a.Min - v
		}
		if a.Max != nil && v > *a.Max && v-*a.Max > viol {
			viol = v - *a.Max
		}
		switch {
		case viol > 0 && (out.OK || viol > worstDist):
			out.OK = false
			worstDist = viol
			pick, pickV = r, v
		case out.OK && (pick == nil ||
			(a.Max != nil && v > pickV) || (a.Max == nil && v < pickV)):
			pick, pickV = r, v
		}
	}
	if pick == nil {
		out.OK = false
		out.Detail = "no server matched the target"
		return out
	}
	out.Detail = fmt.Sprintf("server %d [%s] %s=%s", pick.index, pick.group, a.Metric, fnum(pickV))
	return out
}

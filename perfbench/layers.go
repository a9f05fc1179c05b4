package main

import (
	"fmt"

	"hardharvest/internal/obs"
	"hardharvest/internal/scenario"
)

// layerMetrics turns one (untraced repetition, traced replica) pair into
// the per-layer metrics. Layer times and counts come from the replica's
// spans and results; runtime counters and the events-per-second rate come
// from the untraced repetition, so tracing cost does not leak into them.
// scenario.parse_s is added by the caller from the run's setup samples.
// README.md maps each metric to the end-to-end metric it should move.
func layerMetrics(r *rep, rr *replicaResult) map[string]metric {
	secs := rr.tr.totals()
	windows, calls, busy, covered := rr.tr.shardStats()
	run := secs[spShardRun]

	var all, noharvest obs.Counters
	var events uint64
	var observeCalls uint64
	var observeS float64
	unresolved := 0
	for _, s := range rr.servers {
		c := s.meter.Counters()
		all.Add(&c)
		if !s.harvest {
			noharvest.Add(&c)
		}
		events += s.srv.EventsFired()
		observeCalls += s.ob.calls
		observeS += s.ob.estimate()
		n, _ := s.audit.Unresolved()
		unresolved += n
	}
	pendingMax := 0
	for _, t := range rr.tr.tracks[1:] {
		pendingMax = max(pendingMax, t.pendingMax)
	}
	var dispatched, failovers, probes, ejections, rpcs, dagDone float64
	if f := rr.fleet; f != nil {
		dispatched, failovers = float64(f.Dispatches), float64(f.Failovers)
		probes, ejections = float64(f.Probes), float64(f.Ejections)
	}
	if d := rr.dag; d != nil {
		rpcs, dagDone = float64(d.Dispatches), float64(d.Completed)
	}
	events += rr.frontEvents
	step := secs[spStepHarvest] + secs[spStepNoHarvest]
	share := func(s float64) float64 {
		if run <= 0 {
			return 0
		}
		return 100 * s / run
	}
	perReq := 0.0
	if all.Completions > 0 {
		perReq = step * 1e6 / float64(all.Completions)
	}
	eff := 0.0
	if run > 0 {
		eff = busy / (run * float64(rr.workers))
	}
	return map[string]metric{
		"cluster.new_s":               {secs[spNew], "s"},
		"cluster.start_s":             {secs[spStart], "s"},
		"cluster.finish_s":            {secs[spFinish], "s"},
		"cluster.step_s":              {step, "s"},
		"cluster.step_s.harvest":      {secs[spStepHarvest], "s"},
		"cluster.step_s.noharvest":    {secs[spStepNoHarvest], "s"},
		"cluster.arrivals":            {float64(all.Arrivals), "count"},
		"cluster.completions":         {float64(all.Completions), "count"},
		"cluster.step_us_per_req":     {perReq, "us"},
		"core.loans":                  {float64(all.Loans), "count"},
		"core.reclaims":               {float64(all.Reclaims), "count"},
		"core.preempts":               {float64(all.Preempts), "count"},
		"core.flushes":                {float64(all.Flushes), "count"},
		"core.loans.noharvest":        {float64(noharvest.Loans), "count"},
		"core.reclaims.noharvest":     {float64(noharvest.Reclaims), "count"},
		"obs.observe_calls":           {float64(observeCalls), "count"},
		"obs.observe_s":               {observeS, "s"},
		"obs.audit_unresolved":        {float64(unresolved), "count"},
		"sim.events":                  {float64(events), "count"},
		"sim.events_per_s_per_worker": {float64(events) / r.Wall / float64(rr.workers), "1/s"},
		"sim.pending_max":             {float64(pendingMax), "count"},
		"shard.windows":               {float64(windows), "count"},
		"shard.advance_calls":         {float64(calls), "count"},
		"shard.coord_s":               {max(0, run-covered), "s"},
		"shard.parallel_eff":          {eff, "ratio"},
		"route.advance_share":         {share(secs[spRouteAdvance]), "%"},
		"route.dispatched":            {dispatched, "count"},
		"route.failovers":             {failovers, "count"},
		"route.probes":                {probes, "count"},
		"route.ejections":             {ejections, "count"},
		"graph.advance_share":         {share(secs[spGraphAdvance]), "%"},
		"graph.rpcs":                  {rpcs, "count"},
		"graph.completed":             {dagDone, "count"},
		"validate.check_s":            {secs[spCheck], "s"},
		"runtime.alloc_mb":            {r.Runtime.AllocMB, "MB"},
		"runtime.mallocs":             {r.Runtime.Mallocs, "count"},
		"runtime.gc_cpu_s":            {r.Runtime.GCCPU, "s"},
		"runtime.heap_max_mb":         {r.Runtime.HeapMaxMB, "MB"},
		"trace.overhead":              {rr.wall / r.Elapsed, "ratio"},
	}
}

// crossCheck proves the replica simulated what RunShards simulated: every
// per-server counter the summary prints, and the router's or dispatcher's
// ledgers, must be equal, and the replica's own oracles must pass.
func crossCheck(report *scenario.Report, rr *replicaResult) []string {
	var bad []string
	bad = append(bad, rr.failed...)
	want, err := serverCounters(report.Summary)
	if err != nil {
		return append(bad, err.Error())
	}
	if len(want) != len(rr.servers) {
		bad = append(bad, fmt.Sprintf("servers: report %d, replica %d", len(want), len(rr.servers)))
	}
	for _, s := range rr.servers {
		c := s.meter.Counters()
		got := map[string]uint64{
			"arrivals": c.Arrivals, "completions": c.Completions, "loans": c.Loans,
			"reclaims": c.Reclaims, "preempts": c.Preempts, "flushes": c.Flushes,
		}
		for _, k := range []string{"arrivals", "completions", "loans", "reclaims", "preempts", "flushes"} {
			if w := want[s.index][k]; w != got[k] {
				bad = append(bad, fmt.Sprintf("server %d %s: report %d, replica %d", s.index, k, w, got[k]))
			}
		}
	}
	eq := func(what string, w, g uint64) {
		if w != g {
			bad = append(bad, fmt.Sprintf("%s: report %d, replica %d", what, w, g))
		}
	}
	switch {
	case (report.Fleet == nil) != (rr.fleet == nil):
		bad = append(bad, "router presence differs")
	case report.Fleet != nil:
		eq("router generated", report.Fleet.Generated, rr.fleet.Generated)
		eq("router completed", report.Fleet.Completions, rr.fleet.Completions)
		eq("router failovers", report.Fleet.Failovers, rr.fleet.Failovers)
		eq("router dispatched", report.Fleet.Dispatches, rr.fleet.Dispatches)
		eq("router probes", report.Fleet.Probes, rr.fleet.Probes)
	}
	switch {
	case (report.Graph == nil) != (rr.dag == nil):
		bad = append(bad, "dispatcher presence differs")
	case report.Graph != nil:
		eq("dag generated", report.Graph.Generated, rr.dag.Generated)
		eq("dag completed", report.Graph.Completed, rr.dag.Completed)
		eq("dag rpcs", report.Graph.Dispatches, rr.dag.Dispatches)
	}
	return bad
}

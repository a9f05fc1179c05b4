package main

import (
	"fmt"
	"strings"
)

// defaultSeed is the seed whose summary digests are pinned below. Any other
// seed is checked with Report.OK() alone.
const defaultSeed = 1

// workload is one benchmark input family: a scenario document generated
// from the workload seed. The program under test only ever sees the
// generated document.
type workload struct {
	name string
	// doc renders the scenario document for one seed. Seeds change only
	// RNG streams (scenario seed, fault-plan seed); the fleet shape, window
	// and fault rates are fixed so the amount of work per run stays steady.
	doc func(seed uint64) string
	// pinned is the SHA-256 of the run summary at defaultSeed. A change that
	// only claims speed must leave it unchanged.
	pinned string
}

// The three workloads stress different layers (see README.md for the map
// from each per-layer metric to the end-to-end metric it should move):
//
//   - fleet-1k: 1,000 independent servers, one shard window. Server model,
//     core controller, observers and engine at a working set far beyond the
//     host's caches; the shard coordinator is bypassed.
//   - routed-chaos: 12 servers behind a least-outstanding router under a
//     seeded crash/straggler/preempt-storm plan. Router dispatch, probes and
//     failover, plus one ShardGroup window per network delay.
//   - dag-fanout: a socialnet-shaped request DAG on 20 servers. Many fan-out
//     RPC messages per request and join state in the graph dispatcher,
//     through the same ShardGroup windows.
var workloads = []workload{
	{name: "fleet-1k", doc: fleetDoc,
		pinned: "902ccbfbca78211efc4afb133a434695326d30e9bcc48f9c0d003e331946b29d"},
	{name: "routed-chaos", doc: chaosDoc,
		pinned: "4c394124dc3db6fdbc426c1e5ffb5357fe5c755295e568d29c7cc1bc25705b7e"},
	{name: "dag-fanout", doc: dagDoc,
		pinned: "65b50be94b9ce484bee72e5f4abd68b49533688a7ac1467619a55b6792962862"},
}

func workloadByName(name string) (*workload, error) {
	names := make([]string, len(workloads))
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// mix derives an independent, document-sized RNG seed from the workload
// seed and a salt (splitmix64 finalizer, folded to 31 bits so every value
// is a plain YAML integer).
func mix(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return z&0x7fffffff | 1
}

func fleetDoc(seed uint64) string {
	return fmt.Sprintf(`name: fleet-1k
description: 1000-server routerless fleet, half harvesting, half not
seed: %d
warmup_ms: 10
duration_ms: 20
step_ms: 10
fleet:
  - group: harvest
    count: 500
    system: HardHarvest-Block
    workload: BFS
  - group: noharvest
    count: 500
    system: NoHarvest
    workload: BFS
assertions:
  - metric: completions
    min: 1
  - metric: invariant_violations
    max: 0
  - metric: reassigns
    group: noharvest
    max: 0
  - metric: flow_balance
  - metric: littles_law
`, mix(seed, 1))
}

func chaosDoc(seed uint64) string {
	return fmt.Sprintf(`name: routed-chaos
description: least-outstanding router over 12 servers under a seeded fault plan
seed: %d
warmup_ms: 20
duration_ms: 400
step_ms: 10
routing:
  policy: least_outstanding
  probe_interval_ms: 5
  max_failovers: 8
fleet:
  - group: rack-a
    count: 6
    system: HardHarvest-Block
    workload: BFS
  - group: rack-b
    count: 6
    system: NoHarvest
    workload: BFS
events:
  - at_ms: 30
    kind: faults
    plan:
      seed: %d
      crash: {"rate_per_s": 20, "duration_ms": 15, "jitter": 0.5}
      io_straggler: {"rate_per_s": 40, "duration_ms": 10, "factor": 4}
      preempt_storm: {"rate_per_s": 40, "count": 8}
assertions:
  - metric: failovers
    min: 1
  - metric: lost
    max: 0
  - metric: invariant_violations
    max: 0
  - metric: fleet_conservation
  - metric: flow_balance
  - metric: littles_law
`, mix(seed, 2), mix(seed, 3))
}

func dagDoc(seed uint64) string {
	return fmt.Sprintf(`name: dag-fanout
description: frontend -> logic x2 -> {cache, db} request DAG over 20 servers
seed: %d
warmup_ms: 20
duration_ms: 800
step_ms: 10
graph:
  rpc_delay_us: 20
  root: frontend
  tiers:
    - tier: frontend
      group: fe
      calls:
        - tier: logic
          mode: parallel
          fanout: 2
    - tier: logic
      group: mid
      calls:
        - tier: cache
        - tier: db
    - tier: cache
      group: leaf
    - tier: db
      group: leaf
      vm: 1
fleet:
  - group: fe
    count: 4
    system: HardHarvest-Block
    workload: BFS
  - group: mid
    count: 8
    system: HardHarvest-Block
    workload: BFS
  - group: leaf
    count: 8
    system: NoHarvest
    workload: BFS
assertions:
  - metric: graph_completed
    min: 1
  - metric: graph_failed
    max: 0
  - metric: tier_sheds
    tier: db
    max: 0
  - metric: invariant_violations
    max: 0
  - metric: graph_conservation
  - metric: flow_balance
  - metric: littles_law
`, mix(seed, 4))
}

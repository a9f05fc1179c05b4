package scenario

import (
	"runtime"
	"strings"
	"testing"
	"weak"

	"hardharvest/internal/sim"
)

// TestRunShardsRetiresPlainServers pins the plain-fleet server lifetime:
// members are registered without building anything, a server is built on
// its member's first advance, and once the member passes its horizon the
// server is unreachable — collectable while the rest of the group is still
// running — leaving only its result and ledger. A probe member that runs
// after the fleet members (one worker runs members in index order) checks
// this from inside the group's Run.
func TestRunShardsRetiresPlainServers(t *testing.T) {
	sc := quick(t, runYAML)
	specs, _, _, err := sc.compile()
	if err != nil {
		t.Fatal(err)
	}
	group := sim.NewShardGroup(1)
	states, horizon := addPlainMembers(group, specs)
	for i, st := range states {
		if st.srv != nil || st.ledger != nil {
			t.Fatalf("server %d built before the run", i)
		}
	}
	// Build server 0 here only to take a weak pointer to it; its member
	// then runs it exactly as it would have after building it itself.
	states[0].build(false)
	states[0].srv.Start()
	first := weak.Make(states[0].srv)

	probed := false
	group.AddFunc(nil, func(sim.Time) {
		probed = true
		for i, st := range states {
			if st.srv != nil || st.res == nil || !st.done || st.err != nil {
				t.Errorf("server %d not retired at its horizon: srv=%v res=%v done=%v err=%v",
					i, st.srv != nil, st.res != nil, st.done, st.err)
			}
		}
		runtime.GC()
		if first.Value() != nil {
			t.Error("server 0 is still reachable after its member passed the horizon")
		}
	})
	group.Run(horizon)
	if !probed {
		t.Fatal("probe member never ran")
	}
	// What the retired servers leave behind is what a full run prints.
	rep, err := quick(t, runYAML).RunShards(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range states {
		for _, line := range []string{
			"  counters: " + st.ledger.Counters().String() + "\n",
			"  latency:  " + st.ledger.Hist().String() + "\n",
		} {
			if !strings.Contains(rep.Summary, line) {
				t.Errorf("server %d: summary lacks %q:\n%s", i, line, rep.Summary)
			}
		}
	}
}

const ledgerBenchYAML = `name: bench-ledger
seed: 1
warmup_ms: 10
duration_ms: 50
step_ms: 10
fleet:
  - group: web
    count: 1
    system: HardHarvest-Block
    workload: BFS
`

// BenchmarkServerFleetLedger runs one server the way every plain-fleet
// server runs: built on its member's first advance with the fleet ledger
// as observer and sketch-mode latency recorders, stepped to its horizon,
// then finished and retired. Its allocs/op is pinned in
// BENCH_baseline.json, so per-server observer churn (for example a
// histogram that reallocates on every new maximum) shows up as a
// regression. The server shape matches BenchmarkServerSimulation.
func BenchmarkServerFleetLedger(b *testing.B) {
	sc, err := Parse([]byte(ledgerBenchYAML), false, "")
	if err != nil {
		b.Fatal(err)
	}
	specs, _, _, err := sc.compile()
	if err != nil {
		b.Fatal(err)
	}
	_, _, _, horizon := specs[0].cfg.RunWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &srvState{spec: specs[0]}
		st.member(horizon)
		if st.res == nil || st.res.Requests == 0 {
			b.Fatal("server did not run to its horizon")
		}
	}
}

package cluster

import (
	"testing"

	"hardharvest/internal/faults"
	"hardharvest/internal/sim"
)

// chaosPlan is the fault plan of scenarios/chaos.yaml: seeded crashes, I/O
// stragglers and preempt storms.
const chaosPlan = `{"seed": 7,
 "crash": {"rate_per_s": 20, "duration_ms": 15, "jitter": 0.5},
 "io_straggler": {"rate_per_s": 40, "duration_ms": 10, "factor": 4},
 "preempt_storm": {"rate_per_s": 40, "count": 8}}`

// TestHWOwnerTableDoesNotLeak drives a HardHarvest server through the chaos
// fault plan and checks the hardware backend's owner table at every step:
// its live entries are exactly the requests the controller still holds, and
// every other controller-side object waits in the free pool. A lost
// complete shows up here as a mismatch instead of silent growth.
func TestHWOwnerTableDoesNotLeak(t *testing.T) {
	plan, err := faults.Parse([]byte(chaosPlan))
	if err != nil {
		t.Fatal(err)
	}
	cfg := liveConfig()
	cfg.MeasureDuration = 120 * sim.Millisecond
	cfg.Strict = true
	cfg.FaultPlan = plan
	s := NewServer(cfg, SystemOptions(HardHarvestBlock), bfs(t))
	s.Start()
	check := func() {
		t.Helper()
		live := 0
		for _, r := range s.hw.owners {
			if r != nil {
				live++
			}
		}
		held := 0
		for _, vm := range s.hw.ctrl.VMs() {
			qm := s.hw.ctrl.QM(vm)
			held += qm.HardwareOccupancy() + qm.OverflowLen()
		}
		if live != held {
			t.Fatalf("at %v: %d live owner entries, controller holds %d requests", s.Now(), live, held)
		}
		if free := len(s.hw.hwFree); live+free != len(s.hw.owners) {
			t.Fatalf("at %v: %d live + %d free != %d owner slots", s.Now(), live, free, len(s.hw.owners))
		}
	}
	for at := sim.Time(0); at < s.Horizon(); {
		at = at.Add(sim.Millisecond)
		s.StepTo(at)
		check()
	}
	res := s.Finish()
	check()
	if res.FaultsInjected == 0 {
		t.Fatal("no faults injected")
	}
	if res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations: %s", res.InvariantViolations, res.FirstViolation)
	}
	if len(s.hw.owners) == 0 {
		t.Fatal("the hardware backend never saw a request")
	}
}

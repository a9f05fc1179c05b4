package obs_test

import (
	"fmt"
	"testing"

	"hardharvest/internal/batch"
	"hardharvest/internal/cluster"
	"hardharvest/internal/faults"
	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
)

// tee hands every event of one server to two observers.
type tee struct{ a, b obs.Observer }

func (t tee) Observe(ev obs.Event) {
	t.a.Observe(ev)
	t.b.Observe(ev)
}

// TestLedgerMatchesMeterAudit: the ledger is a drop-in for
// Multi(NewMeter(), NewAudit()). Fed the same event stream from a real
// server run with faults, retries, hedging and shedding active, both must
// report identical counters, histogram and every Audit accessor.
func TestLedgerMatchesMeterAudit(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = 3
	cfg.WarmupDuration = 10 * sim.Millisecond
	cfg.MeasureDuration = 80 * sim.Millisecond
	cfg.LoadScale = 1.4
	cfg.FaultPlan = faults.DefaultPlan()
	// A short grace window leaves measured requests in flight at the
	// horizon, which exercises Unresolved.
	cfg.GraceWindow = 50 * sim.Microsecond
	work, err := batch.WorkloadByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	opts := cluster.SystemOptions(cluster.HardHarvestBlock)
	// A tight timeout and a short retry budget make calls give up.
	opts.Resilience = cluster.DefaultResilience()
	opts.Resilience.SLOTimeoutFactor = 1.5
	opts.Resilience.MaxRetries = 1
	opts.SketchLatency = true

	ledger := obs.NewLedger()
	meter, audit := obs.NewMeter(), obs.NewAudit()
	opts.Observer = tee{ledger, obs.Multi(meter, audit)}
	res := cluster.RunServer(cfg, opts, work)
	ledger.Finish(res.AccountedEnd)
	audit.Finish(res.AccountedEnd)

	// The stream must exercise every path the ledger shares with the
	// audit, or agreement proves little.
	c := ledger.Counters()
	if c.FaultsInjected == 0 || c.Retries == 0 || c.Hedges == 0 || c.Flushes == 0 {
		t.Fatalf("run too tame for a differential test: %s", c)
	}
	if _, misses := audit.MissSum(); misses == 0 {
		t.Fatalf("run has no deadline misses: %s", c)
	}
	if n, _ := audit.Unresolved(); n == 0 {
		t.Fatalf("run leaves no request unresolved at the horizon: %s", c)
	}

	if got, want := ledger.Counters(), meter.Counters(); got != want {
		t.Errorf("Counters: ledger %s, meter %s", got, want)
	}
	if got, want := ledger.Counters(), audit.Counters(); got != want {
		t.Errorf("Counters: ledger %s, audit %s", got, want)
	}
	if got, want := ledger.Hist().String(), meter.Hist().String(); got != want {
		t.Errorf("Hist: ledger %s, meter %s", got, want)
	}
	if got, want := auditView(&ledger.Audit), auditView(audit); got != want {
		t.Errorf("Audit accessors differ:\nledger %s\naudit  %s", got, want)
	}
}

// auditView renders every Audit accessor, for comparing two audits whole.
func auditView(a *obs.Audit) string {
	latSum, latN := a.LatencySum()
	missSum, missN := a.MissSum()
	unres, resid := a.Unresolved()
	wait, waitN := a.MeanQueueWait()
	fmin, fmax := a.FlushRange()
	first, ok := a.FirstArrival()
	return fmt.Sprintf("Integral=%d LatencySum=%d/%d MissSum=%d/%d Unresolved=%d/%d "+
		"MeanQueueWait=%d/%d FlushRange=%d..%d FirstArrival=%d/%v",
		a.Integral(), latSum, latN, missSum, missN, unres, resid, wait, waitN, fmin, fmax, first, ok)
}

package obs

// Ledger is the per-server Observer of a scenario fleet: one Audit plus the
// latency histogram of a Meter, fed from a single Observe call. It gives
// the same Counters, histogram and Audit accessors as Multi(NewMeter(),
// NewAudit()) on the same event stream, but each event is observed once and
// counted once, and a finished server leaves only this compact record
// behind. The embedded Audit is what validate's oracle checks take.
//
// Like every Observer, a Ledger observes exactly one server run and is not
// safe for concurrent use. Call Finish once after the run.
type Ledger struct {
	Audit
	hist LatencyHist
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{hist: LatencyHist{min: -1}}
}

// Observe implements Observer.
func (l *Ledger) Observe(ev Event) {
	l.Audit.Observe(ev)
	if ev.Kind == KindComplete && !ev.IsJob {
		l.hist.Record(ev.Dur)
	}
}

// Hist reports the latency histogram of every primary completion, warmup
// included (Meter.Hist semantics).
func (l *Ledger) Hist() *LatencyHist { return &l.hist }

package obs

import (
	"math/bits"

	"hardharvest/internal/sim"
)

// Audit is an Observer that accumulates the analytic quantities the
// validate oracle cross-checks against queueing theory:
//
//   - a step integral of N(t), the number of measured primary requests in
//     flight, so Little's law (∫N dt = Σ sojourn times) can be asserted as
//     an exact identity over the audited span;
//   - flow balance: measured arrivals = completions + deadline misses +
//     still-unresolved at the horizon (exact, not statistical);
//   - per-attempt queue-wait episodes (enqueue/unblock → dispatch gaps)
//     whose mean is bracketed by M/M/c and M/G/c bounds on calibrated
//     configs;
//   - flush-cost extrema, pinning the configured flush constant.
//
// The audit deliberately re-derives everything from the event stream alone
// — it shares no state with the simulator's own accounting, which is what
// makes agreement between the two meaningful. Only measured (arrived
// inside the measurement window) primary requests enter the Little's-law
// and wait statistics; batch jobs and warmup/drain traffic are excluded.
//
// An Audit observes exactly one server run; it is not safe for concurrent
// use. Call Finish once after the run to close the open N(t) interval.
type Audit struct {
	counters Counters

	// Little's law: inflight maps a measured call's first request id to
	// its arrival time; integral advances by n·Δt at every event.
	inflight stamps
	lastT    sim.Time
	integral sim.Duration

	latSum    sim.Duration // Σ latency over measured completions
	latCount  uint64
	missSum   sim.Duration // Σ sojourn over measured deadline misses
	missCount uint64

	firstArrival sim.Time
	haveArrival  bool

	// Queue waits: enq holds the last enqueue/unblock time per request id;
	// the next dispatch of that id closes the episode.
	enq       stamps
	waitSum   sim.Duration
	waitCount uint64

	flushMin, flushMax sim.Duration
	finished           bool
	end                sim.Time
}

// NewAudit returns an empty audit.
func NewAudit() *Audit { return &Audit{} }

// advance integrates N(t) up to now. Events arrive in nondecreasing time
// order from the discrete-event engine.
func (a *Audit) advance(now sim.Time) {
	a.integral += sim.Duration(a.inflight.n) * now.Sub(a.lastT)
	a.lastT = now
}

// Observe implements Observer.
func (a *Audit) Observe(ev Event) {
	a.counters.Count(ev)
	if ev.Kind == KindFlushStart {
		// Flush costs are a core-level quantity: batch-job dispatches pay
		// them too, so the extrema must cover job events.
		if a.flushMax == 0 || ev.Dur < a.flushMin {
			a.flushMin = ev.Dur
		}
		if ev.Dur > a.flushMax {
			a.flushMax = ev.Dur
		}
	}
	if ev.IsJob {
		return
	}
	switch ev.Kind {
	case KindEnqueue, KindUnblock:
		if ev.Measured {
			a.enq.put(ev.Req, ev.Time)
		}
	case KindDispatch:
		if i := a.enq.find(ev.Req); i >= 0 {
			a.waitSum += ev.Time.Sub(a.enq.slots[i].at)
			a.waitCount++
			a.enq.deleteAt(i)
		}
	}
	if !ev.Measured {
		return
	}
	switch ev.Kind {
	case KindArrival:
		a.advance(ev.Time)
		a.inflight.put(ev.Req, ev.Time)
		if !a.haveArrival {
			a.firstArrival = ev.Time
			a.haveArrival = true
		}
	case KindComplete:
		if i := a.inflight.find(ev.Req); i >= 0 {
			a.advance(ev.Time)
			a.inflight.deleteAt(i)
			a.latSum += ev.Dur
			a.latCount++
		}
	case KindDeadlineMiss:
		if i := a.inflight.find(ev.Req); i >= 0 {
			a.advance(ev.Time)
			a.inflight.deleteAt(i)
			a.missSum += ev.Dur
			a.missCount++
		}
	}
}

// Finish closes the audit at the given simulated time (the accounted end
// of the run): the open N(t) interval is integrated up to end and the
// residual sojourn of still-unresolved requests is computed. Accessors
// before Finish see partial values.
func (a *Audit) Finish(end sim.Time) {
	if a.finished {
		return
	}
	a.advance(end)
	a.end = end
	a.finished = true
}

// Counters reports the aggregated event counts (all traffic, measured or
// not — same semantics as SpanTracer.Counters).
func (a *Audit) Counters() Counters { return a.counters }

// Integral reports ∫N(t)dt: measured in-flight requests integrated over
// time up to Finish's end.
func (a *Audit) Integral() sim.Duration { return a.integral }

// LatencySum reports the summed end-to-end latency of measured completed
// requests, and their count.
func (a *Audit) LatencySum() (sim.Duration, uint64) { return a.latSum, a.latCount }

// MissSum reports the summed sojourn of measured deadline-missed calls,
// and their count.
func (a *Audit) MissSum() (sim.Duration, uint64) { return a.missSum, a.missCount }

// Unresolved reports the measured requests still in flight at Finish and
// their total residual sojourn (end − arrival each).
func (a *Audit) Unresolved() (int, sim.Duration) {
	var resid sim.Duration
	for _, s := range a.inflight.slots {
		if s.key != 0 {
			resid += a.end.Sub(s.at)
		}
	}
	return a.inflight.n, resid
}

// FirstArrival reports the arrival time of the first measured request
// (zero, false if none arrived).
func (a *Audit) FirstArrival() (sim.Time, bool) { return a.firstArrival, a.haveArrival }

// MeanQueueWait reports the mean enqueue→dispatch gap over measured
// queue-wait episodes, and the episode count.
func (a *Audit) MeanQueueWait() (sim.Duration, uint64) {
	if a.waitCount == 0 {
		return 0, 0
	}
	return a.waitSum / sim.Duration(a.waitCount), a.waitCount
}

// FlushRange reports the smallest and largest critical-path flush cost
// seen (both zero if no flush occurred).
func (a *Audit) FlushRange() (min, max sim.Duration) { return a.flushMin, a.flushMax }

// stamps maps request ids to simulated times in one flat open-addressing
// table (Fibonacci-hashed home slot, linear probing, backward-shift
// deletion), kept at most half full. It replaces a Go map on the audit's
// per-event path: the table is two words per slot, never allocates once
// it has grown to the run's peak in-flight count, and its memory tracks
// that peak rather than the number of requests seen.
type stamps struct {
	slots []stampSlot
	n     int
	shift uint // 64 - log2(len(slots))
}

// stampSlot is one table entry; key is the request id plus one, so the
// zero slot is empty.
type stampSlot struct {
	key uint64
	at  sim.Time
}

func (s *stamps) home(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> s.shift) }

// find reports the slot holding id, or -1.
func (s *stamps) find(id uint64) int {
	if s.n == 0 {
		return -1
	}
	key, mask := id+1, len(s.slots)-1
	for i := s.home(key); ; i = (i + 1) & mask {
		switch s.slots[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// put records at for id, replacing any earlier stamp of the same id.
func (s *stamps) put(id uint64, at sim.Time) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	key, mask := id+1, len(s.slots)-1
	i := s.home(key)
	for s.slots[i].key != 0 && s.slots[i].key != key {
		i = (i + 1) & mask
	}
	if s.slots[i].key == 0 {
		s.n++
	}
	s.slots[i] = stampSlot{key: key, at: at}
}

// deleteAt empties slot i (a live slot from find) and shifts later
// entries of its probe run back, so every remaining key stays reachable
// from its home slot without tombstones.
func (s *stamps) deleteAt(i int) {
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if that keeps it at
		// or after its home slot along the probe sequence.
		if (j-s.home(s.slots[j].key))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = stampSlot{}
	s.n--
}

// grow doubles the table (16 slots at first) and reinserts every entry.
func (s *stamps) grow() {
	old := s.slots
	size := max(16, 2*len(old))
	s.slots = make([]stampSlot, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.n = 0
	for _, e := range old {
		if e.key != 0 {
			s.put(e.key-1, e.at)
		}
	}
}

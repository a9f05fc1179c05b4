package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names. Every span is recorded by the benchmark around one call into
// a layer's public API; the simulator itself is not instrumented.
const (
	spParse         = iota // scenario.Parse
	spNew                  // cluster.NewServer
	spStart                // (*cluster.Server).Start
	spStepHarvest          // server advance, harvesting group
	spStepNoHarvest        // server advance, NoHarvest group
	spInject               // (*cluster.Server).InjectFaultPlan, inside an advance
	spFinish               // Finish + Audit.Finish
	spRouteNew             // route.New
	spRouteAdvance         // (*route.Router).Advance
	spRouteFinish          // (*route.Router).Finish
	spGraphNew             // graph.New
	spGraphAdvance         // (*graph.Dispatcher).Advance
	spGraphFinish          // (*graph.Dispatcher).Finish
	spShardSetup           // NewShardGroup + AddFunc + Link + Bind
	spShardRun             // (*sim.ShardGroup).Run
	spCheck                // validate oracles on the replica's results
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"scenario.parse", "cluster.new", "cluster.start", "cluster.step.harvest",
	"cluster.step.noharvest", "cluster.inject_faults", "cluster.finish",
	"route.new", "route.advance", "route.finish",
	"graph.new", "graph.advance", "graph.finish",
	"shard.setup", "shard.run", "validate.check",
}

// span is one recorded interval. Times are nanoseconds since the tracer
// started. parent indexes the causing span in the same track, or is -1
// when the cause is the track's enclosing span (the replica root for track
// 0, the shard.run span for member tracks).
type span struct {
	name       uint8
	parent     int32
	start, end int64
}

// track is the span buffer of one thread of control: track 0 is the
// benchmark's own goroutine, track m+1 is shard member m. A member is
// advanced by one goroutine at a time and the group's window barrier orders
// successive calls, so tracks need no locking.
type track struct {
	spans      []span
	open       int32 // index of the advance span in progress
	pendingMax int   // engine heap high-water sampled at advance boundaries
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0     time.Time
	tracks []*track
}

func newTracer() *tracer { return &tracer{t0: time.Now(), tracks: []*track{{}}} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// member returns the track of shard member m, creating tracks as needed.
// Called only while the group is built, before any advance runs.
func (tr *tracer) member(m int) *track {
	for len(tr.tracks) <= m+1 {
		tr.tracks = append(tr.tracks, &track{})
	}
	return tr.tracks[m+1]
}

// add records a finished span and returns its index in the track.
func (t *track) add(name int, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// timed records fn as one span on track 0.
func (tr *tracer) timed(name int, fn func()) {
	s := tr.now()
	fn()
	tr.tracks[0].add(name, -1, s, tr.now())
}

// totals sums span durations per name, in seconds.
func (tr *tracer) totals() (secs [numSpanNames]float64) {
	for _, t := range tr.tracks {
		for _, s := range t.spans {
			secs[s.name] += float64(s.end-s.start) / 1e9
		}
	}
	return secs
}

func isAdvance(name uint8) bool {
	switch name {
	case spStepHarvest, spStepNoHarvest, spRouteAdvance, spGraphAdvance:
		return true
	}
	return false
}

// shardStats derives the coordinator figures from the member tracks:
//
//   - windows: a lower bound on the group's advance rounds. The group
//     calls each member at most once per window and waits for every call
//     before the next window starts, so in start order a new round begins
//     whenever a member already advanced in the current round is advanced
//     again. Consecutive windows with disjoint members are counted as one:
//     in routed and DAG fleets a window advances the front door, the
//     servers or both, so a {front door} window followed by a {servers}
//     window merges. The spans cannot tell that pair from one window that
//     advances both, and the gaps in the span union cannot either (inside a
//     window one goroutine can be between members while the other is
//     idle). The count depends only on the sequence of window member sets,
//     which the simulation fixes, so it is the same on every run of the
//     same document and at any worker count.
//   - calls: advance invocations over all members.
//   - busy: Σ advance span time (seconds), the numerator of parallel
//     efficiency.
//   - covered: the union of all advance spans (seconds); the shard.run
//     span minus this union is the coordinator's self time.
func (tr *tracer) shardStats() (windows, calls int, busy, covered float64) {
	type call struct {
		member     int
		start, end int64
	}
	var all []call
	for m, t := range tr.tracks[1:] {
		for _, s := range t.spans {
			if isAdvance(s.name) {
				all = append(all, call{member: m, start: s.start, end: s.end})
			}
		}
	}
	if len(all) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	seen := make([]int, len(tr.tracks))
	windows = 1
	curStart, curEnd := all[0].start, all[0].end
	var union int64
	for _, c := range all {
		if seen[c.member] == windows {
			windows++
		}
		seen[c.member] = windows
		busy += float64(c.end-c.start) / 1e9
		if c.start > curEnd {
			union += curEnd - curStart
			curStart, curEnd = c.start, c.end
		} else if c.end > curEnd {
			curEnd = c.end
		}
	}
	union += curEnd - curStart
	return windows, len(all), busy, float64(union) / 1e9
}

// maxSpansWritten caps the written trace: a long routed run records about
// a million advance spans, all of which feed the in-memory statistics, but
// a trace viewer needs only the start of the run.
const maxSpansWritten = 50000

// write exports the earliest maxSpansWritten spans as Chrome trace-event
// JSON (one thread per track), loadable in Perfetto.
func (tr *tracer) write(path string) error {
	type ref struct{ tid, idx int }
	var all []ref
	for tid, t := range tr.tracks {
		for i := range t.spans {
			all = append(all, ref{tid, i})
		}
	}
	start := func(r ref) int64 { return tr.tracks[r.tid].spans[r.idx].start }
	sort.Slice(all, func(i, j int) bool { return start(all[i]) < start(all[j]) })
	if len(all) > maxSpansWritten {
		all = all[:maxSpansWritten]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	for n, r := range all {
		s := tr.tracks[r.tid].spans[r.idx]
		if n > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			spanNames[s.name], r.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, r.idx, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

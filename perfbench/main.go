// Command perfbench is the repository benchmark: it generates one workload's
// scenario document from a seed, runs it through the user-facing path
// (scenario.Parse, then (*Scenario).RunShards(0), the `hhsim run` default of
// one worker per CPU), checks the result, and prints every metric by name
// with its unit. With -trace 1 it also rebuilds the same fleet through the
// layers' public functions with spans around each call and prints the
// per-layer metrics instead. Run it through run.py, which builds it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hardharvest/internal/scenario"
)

func main() { os.Exit(run()) }

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	name := flag.String("workload", "", "workload name (fleet-1k, routed-chaos, dag-fanout)")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the document is generated from it")
	seconds := flag.Int("seconds", 10, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replica, per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the detailed results and spans")
	printDoc := flag.Bool("doc", false, "print the generated scenario document, the input hhsim run takes, and exit")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		if err == nil {
			err = fmt.Errorf("bad arguments")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		flag.Usage()
		return 2
	}
	if *printDoc {
		fmt.Print(w.doc(*seed))
		return 0
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	doc := []byte(w.doc(*seed))
	host := fingerprint()
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s workers=%d\n",
		host.CPU, host.NProc, host.GoMaxProcs, host.Go, host.Workers)

	b := &bench{w: w, seed: *seed, doc: doc, budget: time.Duration(*seconds) * time.Second}
	if err := b.sampleSetup(setupFirst); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: parse:", err)
		return 1
	}
	var res result
	var detail any
	if *trace == 0 {
		res, detail = b.endToEnd()
	} else {
		res, detail = b.traced(filepath.Join(*out, fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed)))
	}
	fmt.Printf("host probe: median=%.4g s over %d samples\n", median(b.probe), len(b.probe))
	fmt.Printf("digest: workload=%s seed=%d sha256=%s %s\n", w.name, *seed, b.digest, b.pinStatus())
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeJSON(path, map[string]any{
		"workload": w.name, "seed": *seed, "host": host, "digest": b.digest,
		"result": res, "detail": detail,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write results:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench holds one invocation's state.
type bench struct {
	w      *workload
	seed   uint64
	doc    []byte
	budget time.Duration
	digest string // summary digest shared by every repetition
	errs   []string
	parseN int       // parses per setup sample
	setup  []float64 // seconds per parse, one per sample
	probe  []float64 // hostProbe seconds, one per setup sample
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	b.errs = append(b.errs, msg)
}

func (b *bench) pinStatus() string {
	switch {
	case b.seed != defaultSeed:
		return "pinned=n/a"
	case b.digest == b.w.pinned:
		return "pinned=match"
	}
	return "pinned=MISMATCH want " + b.w.pinned
}

// parse is the user-facing first step: the document as `hhsim run` reads it.
func (b *bench) parse() (*scenario.Scenario, error) { return scenario.Parse(b.doc, false, "") }

const (
	setupWarmup = 20                    // parses before the sample size is chosen
	setupSample = 20 * time.Millisecond // parse work per sample
	setupFirst  = 9                     // samples before the first repetition
	setupPerRep = 3                     // samples after each repetition
)

// sampleSetup times scenario.Parse of the generated document, k samples of
// a fixed number of parses each (sized from warm parses to take about
// setupSample), with a collection before each sample so no earlier garbage
// is collected inside it. Samples are taken before the first repetition
// and between repetitions, so their median spans the whole run rather than
// one moment of it. A sample is the process CPU time of its parses, in
// seconds per parse: nothing else runs while it is taken, and unlike
// elapsed time it leaves out the time the hypervisor takes from the VM
// (see rep). Each sample is followed by one hostProbe, so host speed is
// recorded at the same moments.
func (b *bench) sampleSetup(k int) error {
	if b.parseN == 0 {
		warm := make([]float64, setupWarmup)
		for i := range warm {
			t := time.Now()
			if _, err := b.parse(); err != nil {
				return err
			}
			warm[i] = time.Since(t).Seconds()
		}
		b.parseN = max(1, int(setupSample.Seconds()/median(warm)))
	}
	for i := 0; i < k; i++ {
		runtime.GC()
		cpu0 := cpuSeconds()
		for j := 0; j < b.parseN; j++ {
			if _, err := b.parse(); err != nil {
				return err
			}
		}
		b.setup = append(b.setup, (cpuSeconds()-cpu0)/float64(b.parseN))
		b.probe = append(b.probe, hostProbe())
	}
	return nil
}

// rep is one untraced RunShards repetition.
//
// On a shared host the hypervisor can take a third of the VM's CPU time for
// minutes at a time (steal, in /proc/stat), and elapsed time stretches with
// it while the program does the same work. Wall is therefore the elapsed
// time the VM had its CPUs, Elapsed × (1 − Steal), with Steal the share of
// all CPUs' time stolen during the repetition. The process CPU time in CPU
// already leaves steal out.
type rep struct {
	Wall      float64 `json:"wall_s"`
	Elapsed   float64 `json:"elapsed_s"`
	Steal     float64 `json:"steal_share"`
	CPU       float64 `json:"cpu_s"`
	Completed uint64  `json:"completed"`
	OK        bool    `json:"ok"`
	// Runtime is the Go runtime's work in the repetition: allocation and
	// collection, recorded so that two runs whose times differ can be
	// checked for a difference in GC work.
	Runtime runtimeDelta `json:"runtime"`
	report  *scenario.Report
}

// runOnce parses a fresh scenario (untimed), collects garbage, then times
// RunShards(0) in wall and process CPU time. sampleHeap adds the live-heap
// sampler of traced runs.
func (b *bench) runOnce(sampleHeap bool) (*rep, error) {
	sc, err := b.parse()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rt := startRuntimeProbe(sampleHeap)
	st0 := readCPUStat()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	report, err := sc.RunShards(0)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	steal := stealShare(st0, readCPUStat())
	r := &rep{Wall: wall * (1 - steal), Elapsed: wall, Steal: steal, CPU: cpu,
		report: report, Runtime: rt.stop()}
	if err != nil {
		return nil, err
	}
	r.Completed, err = completed(report)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(report.Summary))
	d := hex.EncodeToString(sum[:])
	if !report.OK() {
		b.fail("scenario assertions or oracles failed:\n%s", report.Summary)
	}
	switch {
	case b.digest == "":
		b.digest = d
		if b.seed == defaultSeed && d != b.w.pinned {
			b.fail("summary digest %s differs from the pinned %s", d, b.w.pinned)
		}
	case d != b.digest:
		b.fail("summary digest changed between repetitions: %s then %s", b.digest, d)
	}
	r.OK = report.OK() && d == b.digest && (b.seed != defaultSeed || d == b.w.pinned)
	return r, nil
}

// completed counts simulated requests finished: router completions, DAG
// roots completed, or primary completions summed over a routerless fleet.
func completed(r *scenario.Report) (uint64, error) {
	switch {
	case r.Fleet != nil:
		return r.Fleet.Completions, nil
	case r.Graph != nil:
		return r.Graph.Completed, nil
	}
	counts, err := serverCounters(r.Summary)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, c := range counts {
		n += c["completions"]
	}
	return n, nil
}

// repeat calls fn until the budget is spent, at least min times: another
// call starts only if the previous one's length still fits. Setup samples
// are taken after each call. The first error stops the loop; repeat
// reports whether one occurred, so the caller counts it as a failed attempt.
func (b *bench) repeat(min int, fn func() error) (errored int) {
	start := time.Now()
	var last time.Duration
	for n := 0; n < min || time.Since(start)+last <= b.budget; n++ {
		t := time.Now()
		if err := fn(); err != nil {
			b.fail("%v", err)
			return 1
		}
		if err := b.sampleSetup(setupPerRep); err != nil {
			b.fail("parse: %v", err)
			return 1
		}
		last = time.Since(t)
	}
	return 0
}

// verdict starts the result line: the run is correct only if every attempt
// passed and nothing else failed along the way.
func (b *bench) verdict(attempted, failed int) result {
	return result{Correct: len(b.errs) == 0 && failed == 0, Attempted: max(1, attempted),
		Failed: max(failed, 1-attempted), Metrics: map[string]metric{}}
}

func (b *bench) endToEnd() (result, any) {
	var reps []*rep
	errored := b.repeat(3, func() error {
		r, err := b.runOnce(false)
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		r.report = nil // keep finished reports out of the measured heap
		reps = append(reps, r)
		return nil
	})
	failed := errored
	var walls, cpus, rates []float64
	for _, r := range reps {
		if !r.OK {
			failed++
		}
		walls = append(walls, r.Wall)
		cpus = append(cpus, r.CPU)
		rates = append(rates, float64(r.Completed)/r.Wall)
	}
	res := b.verdict(len(reps)+errored, failed)
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["cpu_s"] = metric{median(cpus), "s"}
	res.Metrics["sim_req_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	res.Metrics["setup_s"] = metric{median(b.setup), "s"}
	res.Metrics["pass_ratio"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
	return res, map[string]any{"repetitions": reps, "setup_samples": b.setup,
		"host_probe_s": b.probe, "errors": b.errs}
}

// traced alternates an untraced repetition with a traced replica of the
// same document until the budget is spent (at least one pair), checks that
// each replica simulated exactly what the untraced run did, and reports
// the per-layer metrics as medians over the pairs. The first replica's
// spans are written to spanPath and then dropped, so no tracer is live
// while a later untraced repetition is measured.
func (b *bench) traced(spanPath string) (result, any) {
	var pairs []map[string]metric
	failed := 0
	errored := b.repeat(1, func() error {
		r, err := b.runOnce(true)
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		sc, err := b.parse()
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		runtime.GC()
		rr, err := runReplica(sc)
		if err != nil {
			return err
		}
		mismatches := crossCheck(r.report, rr)
		for _, m := range mismatches {
			b.fail("replica cross-check: %s", m)
		}
		if !r.OK || len(mismatches) > 0 {
			failed++
		}
		pairs = append(pairs, layerMetrics(r, rr))
		if len(pairs) == 1 {
			if err := rr.tr.write(spanPath); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
		return nil
	})
	res := b.verdict(len(pairs)+errored, failed+errored)
	if len(pairs) > 0 {
		for name, m := range pairs[0] {
			vals := make([]float64, len(pairs))
			for i, p := range pairs {
				vals[i] = p[name].Value
			}
			res.Metrics[name] = metric{median(vals), m.Unit}
		}
	}
	res.Metrics["scenario.parse_s"] = metric{median(b.setup), "s"}
	return res, map[string]any{"pairs": pairs, "setup_samples": b.setup,
		"host_probe_s": b.probe, "errors": b.errs}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// serverCounters parses the per-server counter lines of a scenario summary:
// "server <i> [...]" followed by "  counters: key=value ...".
func serverCounters(summary string) (map[int]map[string]uint64, error) {
	out := map[int]map[string]uint64{}
	cur := -1
	for _, line := range strings.Split(summary, "\n") {
		if rest, ok := strings.CutPrefix(line, "server "); ok {
			idx, _, _ := strings.Cut(rest, " ")
			i, err := strconv.Atoi(idx)
			if err != nil {
				return nil, fmt.Errorf("summary: bad server line %q", line)
			}
			cur = i
			continue
		}
		rest, ok := strings.CutPrefix(line, "  counters: ")
		if !ok || cur < 0 {
			continue
		}
		c := map[string]uint64{}
		for _, f := range strings.Fields(rest) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("summary: bad counter %q", f)
			}
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("summary: bad counter %q", f)
			}
			c[k] = n
		}
		out[cur] = c
		cur = -1
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("summary: no server counters")
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

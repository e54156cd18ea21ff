// Command perfbench is the repository's benchmark. It times whole,
// deterministic simulation runs and checks every simulated result.
//
// Run from the repository root (run.sh builds the driver first):
//
//	bash perfbench/run.sh --workload fig5-dcm --seed 42 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload fig5-dcm --trace 1   # per-layer metrics
//	bash perfbench/run.sh --workload all                  # every workload
//	bash perfbench/run.sh --workload fig5-dcm --steady 10 # spread over 10 seeds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"dcm/internal/metrics"
)

// defaultSeed is the seed the digest pins in pins.go are recorded for.
const defaultSeed = 42

// cpuHz is the CPU sampling rate the traced run asks for, ten times
// pprof's default. CPU passes repeat until they hold minCPUSamples samples,
// so that a layer with 1% of the CPU has a usable count, or until
// maxCPUPasses passes have run.
const (
	cpuHz         = 1000
	minCPUSamples = 2000
	maxCPUPasses  = 6
)

// maxReps bounds the repetitions of one run however short they are.
const maxReps = 200

func main() {
	// Timed runs use no allocation sampling; the traced run switches it on
	// for its allocation pass only.
	runtime.MemProfileRate = 0
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	steady   int
	repo     string
	spanDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "fig5-dcm, fanout5-burst, million-smoke, or all")
	fs.Uint64Var(&c.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", 25, "host seconds one timed run repeats the workload for")
	fs.IntVar(&c.trace, "trace", 0, "1 makes the traced run and reports per-layer metrics")
	fs.IntVar(&c.steady, "steady", 0, "run N processes with seeds seed..seed+N-1 and print each end-to-end metric's spread")
	fs.StringVar(&c.repo, "repo", ".", "repository root")
	fs.StringVar(&c.spanDir, "spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span log")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (c.trace != 0 && c.trace != 1) || c.seconds < 0 || c.steady < 0 {
		fmt.Fprintln(stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	// The simulation is one goroutine, so one P: the collector then shares
	// the simulation's CPU and wall time is the whole cost of the run, GC
	// included. It also keeps the process within one CPU's worth of time,
	// which on a VM with a CPU quota draws far less steal time than letting
	// the collector spread to a second CPU.
	runtime.GOMAXPROCS(1)
	h := fingerprint()
	fmt.Fprintf(stdout, "# host go=%s gomaxprocs=%d nproc=%d gogc=%s cpu=%q\n",
		h.Go, h.GOMAXPROCS, h.NProc, h.GOGC, h.CPU)

	if c.workload == "all" {
		return runAll(c, stdout, stderr)
	}
	w, ok := workloadByName(c.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", c.workload)
		return 2
	}
	if c.steady > 0 {
		return runSteady(c, stdout, stderr)
	}
	var res result
	if c.trace == 1 {
		res = tracedRun(w, c, h, stdout)
	} else {
		res = timedRun(w, c, pins, stdout)
	}
	return emit(stdout, res)
}

// emit prints the result line and turns it into the exit code.
func emit(stdout io.Writer, res result) int {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stdout, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// rep is one simulation: its set-up, its run and what it produced.
type rep struct {
	sub         int // sub-seed index
	setup, wall time.Duration
	// speed is the host's speed during the repetition, as the probe
	// measured it (probe.go); 1 when no probe ran.
	speed       float64
	peakRSS     float64 // MB, the process's high-water mark over set-up and run
	mallocs     uint64
	bytes       uint64
	gcCycles    uint32
	events      uint64
	peakPending int
	digest      string
	out         outcome
}

// hooks run right before and right after the engine runs.
type hooks struct{ before, after func() }

func runRep(w workloadDef, seed uint64, sub int, o runOpts, hk hooks) (rep, error) {
	// Each repetition starts from a collected heap with its free pages
	// returned to the OS, so that it does not inherit the last one's.
	debug.FreeOSMemory()
	resetPeakRSS()
	r := rep{sub: sub, speed: 1}
	setupID := o.rec.begin("setup")
	t0 := time.Now()
	inst, err := w.build(o, subSeed(seed, sub))
	r.setup = time.Since(t0)
	o.rec.end(setupID)
	if err != nil {
		return r, err
	}
	if hk.before != nil {
		hk.before()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runID := o.rec.begin("run")
	t1 := time.Now()
	err = inst.run(o)
	r.wall = time.Since(t1) - inst.probeTime
	o.rec.end(runID)
	runtime.ReadMemStats(&m1)
	r.peakRSS = peakRSSMB() - o.probe.residentMB()
	if inst.probes > 0 {
		r.speed = probeRefNS * float64(inst.probes) / float64(inst.probeTime.Nanoseconds())
	}
	if hk.after != nil {
		hk.after()
	}
	if err != nil {
		return r, fmt.Errorf("run: %w", err)
	}
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.events = inst.eng.Processed()
	r.peakPending = inst.peakPending
	if r.out, err = inst.finish(); err != nil {
		return r, err
	}
	if r.digest, err = digestOf(r.out.canon); err != nil {
		return r, err
	}
	out := r.out
	if out.attempts == 0 {
		return r, fmt.Errorf("no request attempted")
	}
	if out.ok+out.failed+out.inFlight != out.attempts {
		return r, fmt.Errorf("conservation: ok %d + failed %d + in flight %d != attempted %d",
			out.ok, out.failed, out.inFlight, out.attempts)
	}
	if inst.chk != nil {
		if vs := inst.chk.Violations(); len(vs) > 0 {
			return r, fmt.Errorf("%d invariant violations, first: %v", len(vs), vs[0])
		}
	}
	return r, nil
}

// runSet is the repetitions of one benchmark run.
type runSet struct {
	reps      []rep
	first     map[int]rep // first good repetition of each sub-run
	attempted int
	problems  []string
}

func (s *runSet) fail(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// repeat cycles through the first subRuns sub-seeds until minReps
// repetitions have run and budget has passed. A repetition of a sub-seed
// must reproduce its first digest.
func repeat(w workloadDef, seed uint64, subRuns, minReps int, budget time.Duration, o runOpts) *runSet {
	s := &runSet{first: map[int]rep{}}
	start := time.Now()
	for i := 0; i < maxReps && (i < minReps || time.Since(start) < budget); i++ {
		sub := i % subRuns
		s.attempted++
		r, err := runRep(w, seed, sub, o, hooks{})
		if err != nil {
			s.fail("sub-run %d: %v", sub, err)
			continue
		}
		if f, ok := s.first[sub]; !ok {
			s.first[sub] = r
		} else if f.digest != r.digest {
			s.fail("sub-run %d is not deterministic: digest %s, then %s", sub, f.digest, r.digest)
			continue
		}
		s.reps = append(s.reps, r)
	}
	return s
}

// combinedDigest hashes the sub-run digests in sub-run order.
func (s *runSet) combinedDigest(w workloadDef) (string, bool) {
	h := sha256.New()
	for i := 0; i < w.subRuns; i++ {
		r, ok := s.first[i]
		if !ok {
			return "", false
		}
		h.Write([]byte(r.digest))
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// checkPin compares the run's digest with the pin for the default seed
// and describes the outcome.
func (s *runSet) checkPin(w workloadDef, seed uint64, pins map[string]string) string {
	d, ok := s.combinedDigest(w)
	if !ok {
		return "incomplete"
	}
	pin, pinned := pins[w.name]
	switch {
	case !pinned || seed != defaultSeed:
		return d + " (no pin for this seed; conservation checked)"
	case pin != d:
		s.fail("simulated digest %s does not match the pinned %s", d, pin)
		s.attempted++
		return d + " MISMATCH"
	}
	return d + " (matches the pin)"
}

func (s *runSet) result(m map[string]metric) result {
	return result{
		Correct:   len(s.problems) == 0,
		Attempted: max(s.attempted, 1),
		Failed:    len(s.problems),
		Metrics:   m,
	}
}

// endToEndNames lists the end-to-end metrics in print order.
var endToEndNames = []string{
	"wall_s", "setup_s", "ns_per_req", "allocs_per_req", "bytes_per_req",
	"peak_rss_mb", "sim_goodput_ratio", "sim_p95_rt_ms",
}

// subMean is the mean over sub-seeds of each sub-seed's mean of f over its
// repetitions, so that every sub-seed weighs the same however many times
// the budget let it repeat.
func subMean(reps []rep, f func(rep) float64) float64 {
	sum := map[int]float64{}
	n := map[int]int{}
	for _, r := range reps {
		sum[r.sub] += f(r)
		n[r.sub]++
	}
	var total float64
	for sub, v := range sum {
		total += v / float64(n[sub])
	}
	return ratio(total, float64(len(sum)))
}

func endToEnd(w workloadDef, s *runSet) map[string]metric {
	var setups, allocs, bytes []float64
	for _, r := range s.reps {
		req := float64(r.out.attempts)
		setups = append(setups, r.setup.Seconds()*r.speed)
		allocs = append(allocs, float64(r.mallocs)/req)
		bytes = append(bytes, float64(r.bytes)/req)
	}
	// Host times are at the probe's reference speed (probe.go). They and
	// the peak RSS are means rather than medians: the host's speed still
	// moves a little within a run, and in fig5-dcm a repetition's peak RSS
	// takes one of two levels about 6 MB apart, depending on where the
	// collector's cycles fall in host time. A mean follows the share of
	// each smoothly where a median jumps between them.
	wall := subMean(s.reps, func(r rep) float64 { return r.wall.Seconds() * r.speed })
	ns := subMean(s.reps, func(r rep) float64 {
		return float64(r.wall.Nanoseconds()) * r.speed / float64(r.out.attempts)
	})
	rss := subMean(s.reps, func(r rep) float64 { return r.peakRSS })
	// The simulated tail latency is the p95 of the sub-runs' pooled
	// per-second series where the workload has one, else the median of the
	// sub-runs' values.
	var ok, attempts uint64
	var rts, pooled []float64
	for _, r := range s.first {
		ok += r.out.ok
		attempts += r.out.attempts
		rts = append(rts, r.out.rtMS)
		pooled = append(pooled, r.out.rtSeries...)
	}
	rt := median(rts)
	if len(pooled) > 0 {
		rt = metrics.Summarize(pooled).P95 * 1000
	}
	m := map[string]metric{
		"wall_s":         {wall, "s"},
		"setup_s":        {median(setups), "s"},
		"ns_per_req":     {ns, "ns"},
		"allocs_per_req": {median(allocs), "allocs/req"},
		"bytes_per_req":  {median(bytes), "B/req"},
		"peak_rss_mb":    {rss, "MB"},
	}
	m["sim_goodput_ratio"] = metric{0, "ratio"}
	m["sim_p95_rt_ms"] = metric{0, "ms"}
	if attempts > 0 {
		m["sim_goodput_ratio"] = metric{float64(ok) / float64(attempts), "ratio"}
		m["sim_p95_rt_ms"] = metric{rt, "ms"}
	}
	return m
}

func printMetrics(out io.Writer, names []string, m map[string]metric) {
	for _, n := range names {
		fmt.Fprintf(out, "%-30s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func timedRun(w workloadDef, c config, pins map[string]string, stdout io.Writer) result {
	probe, err := newHostProbe()
	if err != nil {
		s := &runSet{attempted: 1}
		s.fail("%v", err)
		return s.result(nil)
	}
	o := runOpts{repo: c.repo, probe: probe}
	s := repeat(w, c.seed, w.subRuns, w.subRuns, time.Duration(c.seconds*float64(time.Second)), o)
	status := s.checkPin(w, c.seed, pins)
	fmt.Fprintf(stdout, "# workload %s seed %d: %d repetitions over %d sub-seeds, digest %s\n",
		w.name, c.seed, len(s.reps), w.subRuns, status)
	for _, p := range s.problems {
		fmt.Fprintf(stdout, "# FAIL %s\n", p)
	}
	var walls, speeds, rss, rts []string
	for _, r := range s.reps {
		walls = append(walls, fmt.Sprintf("%.3f", r.wall.Seconds()))
		speeds = append(speeds, fmt.Sprintf("%.3f", r.speed))
		rss = append(rss, fmt.Sprintf("%.2f", r.peakRSS))
	}
	for i := 0; i < w.subRuns; i++ {
		if r, ok := s.first[i]; ok {
			rts = append(rts, fmt.Sprintf("%.2f", r.out.rtMS))
		}
	}
	fmt.Fprintf(stdout, "# raw host seconds by repetition: %s\n", strings.Join(walls, " "))
	fmt.Fprintf(stdout, "# host speed by repetition: %s\n", strings.Join(speeds, " "))
	fmt.Fprintf(stdout, "# peak_rss_mb by repetition: %s\n", strings.Join(rss, " "))
	fmt.Fprintf(stdout, "# sim_p95_rt_ms by sub-run: %s\n", strings.Join(rts, " "))
	m := endToEnd(w, s)
	printMetrics(stdout, endToEndNames, m)
	return s.result(m)
}

// setupStages are the set-up spans a workload may record.
var setupStages = []string{"trace", "spec", "app", "controller", "framework", "workload"}

// perLayerNames lists every per-layer metric the traced run reports.
func perLayerNames() []string {
	var names []string
	for _, l := range layers {
		names = append(names, l+".self_ns_per_req", l+".allocs_per_req")
	}
	names = append(names,
		"sim.events_per_req", "sim.events_per_s", "sim.ns_per_event", "sim.peak_pending",
		"sim.step_ms_p50", "sim.step_ms_tail", "sim.step_ms_tail_pct", "sim.step_count",
		"sim.step_self_frac",
		"runtime.malloc_ns_per_req", "runtime.gc_cycles",
		"graph.inject_ns_p50", "graph.inject_ns_tail", "graph.inject_ns_tail_pct", "graph.inject_count",
		"graph.visits_per_req",
		"server.queue_depth_p95", "connpool.acquires_per_req", "connpool.waits_per_req", "connpool.wait_p95_ms",
		"resilience.rejected_per_req", "resilience.shed_per_req",
		"controller.evaluations", "controller.evaluate_us_p50", "controller.actions", "bus.messages",
		"bench.trace_overhead_frac", "bench.cpu_samples", "bench.alloc_profile_coverage",
	)
	for _, st := range setupStages {
		names = append(names, "setup."+st+"_ms")
	}
	return names
}

// untracedReps is how many untraced repetitions of sub-run 0 the traced
// run makes, for the untraced digest and wall time it is compared with.
const untracedReps = 3

// allocEvery is the period, in simulated seconds, of the seconds the
// allocation pass records every allocation in.
const allocEvery = 8

// tracedRun makes untraced repetitions of sub-run 0, then traced passes
// over it, each of which must reproduce its digest: CPU-profiled passes
// with spans around the calls into each layer, an allocation-profiled
// pass, and a pass under the invariant checker. The passes are kept apart
// so that profiling and checking do not charge their own cost to the
// layers they observe. Every pass steps the engine one simulated second
// at a time.
func tracedRun(w workloadDef, c config, h host, stdout io.Writer) result {
	start := time.Now()
	s := repeat(w, c.seed, 1, untracedReps, 0, runOpts{repo: c.repo})
	base, ok := s.first[0]
	if !ok {
		s.fail("sub-run 0 failed untraced; no traced run made")
		return s.result(nil)
	}
	var passLog []string
	pass := func(name string, o runOpts, hk hooks) rep {
		s.attempted++
		t0 := time.Now()
		r, err := runRep(w, c.seed, 0, o, hk)
		passLog = append(passLog, fmt.Sprintf("%s %.1fs", name, time.Since(t0).Seconds()))
		switch {
		case err != nil:
			s.fail("%s pass: %v", name, err)
		case r.digest != base.digest:
			s.fail("%s pass digest %s differs from the untraced %s", name, r.digest, base.digest)
		}
		return r
	}

	// The kernel may tick CPU-time timers slower than cpuHz, so samples are
	// counted, passes repeated until there are enough of them, and each
	// layer's share of the samples is scaled by the CPU time the passes used.
	rec := newRecorder(fmt.Sprintf("%s/seed=%d", w.name, c.seed))
	var cpu rep
	var samples []sample
	var cpuNS int64
	cpuPasses := 0
	for ; cpuPasses < maxCPUPasses && (cpuPasses == 0 || len(samples) < minCPUSamples); cpuPasses++ {
		r := rec
		if cpuPasses > 0 {
			r = newRecorder(rec.run)
		}
		var prof bytes.Buffer
		var t0 int64
		p := pass("cpu", runOpts{repo: c.repo, rec: r, step: true}, hooks{
			before: func() {
				// pprof starts at 100 Hz; setting the rate first makes its
				// own call a no-op (the runtime warns about it on stderr).
				runtime.SetCPUProfileRate(cpuHz)
				if err := pprof.StartCPUProfile(&prof); err != nil {
					s.fail("cpu profile: %v", err)
				}
				t0 = cpuTime()
			},
			after: func() {
				cpuNS += cpuTime() - t0
				pprof.StopCPUProfile()
			},
		})
		if cpuPasses == 0 {
			cpu = p
		}
		ss, err := cpuSamples(prof.Bytes())
		if err != nil {
			s.fail("%v", err)
		}
		samples = append(samples, ss...)
	}
	// Recording every allocation's stack costs microseconds per object, so
	// MemProfileRate=1 is on during every allocEvery-th simulated second
	// only; the layer shares seen there split the pass's exact allocation
	// count.
	var before allocSnapshot
	var allocAttr attribution
	alloc := pass("alloc", runOpts{repo: c.repo, step: true, onStep: func(t time.Duration, begin bool) {
		if int64(t/time.Second)%allocEvery != 0 {
			return
		}
		if begin {
			runtime.MemProfileRate = 1
		} else {
			runtime.MemProfileRate = 0
		}
	}}, hooks{
		before: func() {
			runtime.GC()
			before = takeAllocSnapshot()
		},
		after: func() {
			runtime.MemProfileRate = 0
			runtime.GC()
			allocAttr = attribute(allocSamples(before, takeAllocSnapshot()))
		},
	})
	allocsPerObject := ratio(float64(alloc.mallocs), float64(allocAttr.total))
	pass("invariant", runOpts{repo: c.repo, step: true, check: true}, hooks{})

	cpuAttr := attribute(samples)
	// nsPerSample converts sample counts to CPU nanoseconds; the samples
	// span cpuPasses runs of base.out.attempts requests each.
	nsPerSample := ratio(float64(cpuNS), float64(cpuAttr.total)*float64(cpuPasses))
	for _, a := range []attribution{cpuAttr, allocAttr} {
		if err := a.checkTotals(); err != nil {
			s.fail("%v", err)
		}
	}
	spanLog := filepath.Join(c.spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, c.seed))
	if err := rec.writeJSONL(spanLog, h); err != nil {
		s.fail("%v", err)
	}

	req := float64(base.out.attempts)
	events := float64(base.events)
	m := map[string]metric{}
	for _, l := range layers {
		m[l+".self_ns_per_req"] = metric{float64(cpuAttr.byLayer[l]) * nsPerSample / req, "ns/req"}
		m[l+".allocs_per_req"] = metric{float64(allocAttr.byLayer[l]) * allocsPerObject / req, "allocs/req"}
	}
	var walls, eventRates, gcs []float64
	for _, r := range s.reps {
		walls = append(walls, r.wall.Seconds())
		eventRates = append(eventRates, float64(r.events)/r.wall.Seconds())
		gcs = append(gcs, float64(r.gcCycles))
	}
	m["sim.events_per_req"] = metric{events / req, "events/req"}
	m["sim.events_per_s"] = metric{median(eventRates), "events/s"}
	m["sim.ns_per_event"] = metric{float64(cpuAttr.byLayer["sim"]) * nsPerSample / events, "ns/event"}
	m["sim.peak_pending"] = metric{float64(cpu.peakPending), "events"}
	steps := rec.durations("step")
	stepTail, stepPct := tail(steps)
	m["sim.step_ms_p50"] = metric{percentile(steps, 0.5) / 1e6, "ms"}
	m["sim.step_ms_tail"] = metric{stepTail / 1e6, "ms"}
	m["sim.step_ms_tail_pct"] = metric{stepPct, "%"}
	m["sim.step_count"] = metric{float64(len(steps)), "count"}
	stepDur, stepSelf := rec.total("step")
	m["sim.step_self_frac"] = metric{ratio(float64(stepSelf), float64(stepDur)), "frac"}
	m["runtime.malloc_ns_per_req"] = metric{float64(cpuAttr.malloc) * nsPerSample / req, "ns/req"}
	m["runtime.gc_cycles"] = metric{median(gcs), "count"}
	injects := rec.durations("inject")
	injTail, injPct := tail(injects)
	m["graph.inject_ns_p50"] = metric{percentile(injects, 0.5), "ns"}
	m["graph.inject_ns_tail"] = metric{injTail, "ns"}
	m["graph.inject_ns_tail_pct"] = metric{injPct, "%"}
	m["graph.inject_count"] = metric{float64(len(injects)), "count"}
	lc := base.out.layer
	m["graph.visits_per_req"] = metric{float64(lc.visits) / req, "visits/req"}
	m["server.queue_depth_p95"] = metric{lc.queueDepthP95, "requests"}
	m["connpool.acquires_per_req"] = metric{float64(lc.poolAcquires) / req, "1/req"}
	m["connpool.waits_per_req"] = metric{float64(lc.poolWaits) / req, "1/req"}
	m["connpool.wait_p95_ms"] = metric{lc.poolWaitP95 * 1000, "ms"}
	m["resilience.rejected_per_req"] = metric{float64(lc.rejected) / req, "1/req"}
	m["resilience.shed_per_req"] = metric{float64(lc.shed) / req, "1/req"}
	m["controller.evaluations"] = metric{float64(cpu.out.layer.evaluations), "count"}
	m["controller.evaluate_us_p50"] = metric{percentile(rec.durations("controller.evaluate"), 0.5) / 1e3, "us"}
	m["controller.actions"] = metric{float64(lc.actions), "count"}
	m["bus.messages"] = metric{float64(lc.busMessages), "count"}
	m["bench.trace_overhead_frac"] = metric{cpu.wall.Seconds()/median(walls) - 1, "frac"}
	m["bench.cpu_samples"] = metric{float64(len(samples)), "count"}
	m["bench.alloc_profile_coverage"] = metric{ratio(float64(allocAttr.total), float64(alloc.mallocs)), "frac"}
	for _, st := range setupStages {
		d, _ := rec.total("setup." + st)
		m["setup."+st+"_ms"] = metric{float64(d) / 1e6, "ms"}
	}

	fmt.Fprintf(stdout, "# workload %s seed %d traced in %.0fs: %d untraced repetitions, passes: %s; spans in %s\n",
		w.name, c.seed, time.Since(start).Seconds(), len(s.reps), strings.Join(passLog, ", "), spanLog)
	for _, p := range s.problems {
		fmt.Fprintf(stdout, "# FAIL %s\n", p)
	}
	printLayerTable(stdout, m)
	printMetrics(stdout, perLayerNames()[2*len(layers):], m)
	return s.result(m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printLayerTable prints CPU and allocations per request side by side.
func printLayerTable(out io.Writer, m map[string]metric) {
	fmt.Fprintf(out, "%-12s %14s %14s\n", "layer", "self ns/req", "allocs/req")
	for _, l := range layers {
		fmt.Fprintf(out, "%-12s %14.1f %14.2f\n", l, m[l+".self_ns_per_req"].Value, m[l+".allocs_per_req"].Value)
	}
}

// child runs the driver in a new process and returns its result line.
func child(args []string, stdout, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(&buf, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("perfbench %s: no result line (%v)", strings.Join(args, " "), runErr)
	}
	return res, nil
}

func childArgs(c config, workload string, seed uint64) []string {
	return []string{
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(c.seconds),
		"--trace", fmt.Sprint(c.trace), "--repo", c.repo, "--spans", c.spanDir,
	}
}

// runAll runs every workload, each in its own process, and merges their
// results under "<workload>.<metric>" names.
func runAll(c config, stdout, stderr io.Writer) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		res, err := child(childArgs(c, w.name, c.seed), stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			res = result{Attempted: 1, Failed: 1}
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	return emit(stdout, all)
}

// runSteady runs the workload in c.steady processes with consecutive
// seeds and prints, for each end-to-end metric, the median, the quartiles
// (as Python's statistics.quantiles computes them), the interquartile range
// as a share of the median, and the max/min spread.
func runSteady(c config, stdout, stderr io.Writer) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < c.steady; i++ {
		res, err := child(childArgs(c, c.workload, c.seed+uint64(i)), io.Discard, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			res = result{Attempted: 1, Failed: 1}
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := endToEndNames
	if c.trace == 1 {
		names = perLayerNames()
	}
	fmt.Fprintf(stdout, "# %s: %d runs, seeds %d..%d, %gs each\n",
		c.workload, c.steady, c.seed, c.seed+uint64(c.steady)-1, c.seconds)
	fmt.Fprintf(stdout, "%-30s %12s %12s %12s %8s %12s %12s %8s\n",
		"metric", "median", "q1", "q3", "iqr/med", "min", "max", "max/min")
	for _, n := range names {
		v := values[n]
		if len(v) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(v)
		s := sorted(v)
		fmt.Fprintf(stdout, "%-30s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g %8.4f\n",
			n, q2, q1, q3, ratio(q3-q1, q2), s[0], s[len(s)-1], ratio(s[len(s)-1], s[0])-1)
		all.Metrics[n] = metric{q2, units[n]}
	}
	return emit(stdout, all)
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"dcm/internal/cloud"
	"dcm/internal/controller"
	"dcm/internal/core"
	"dcm/internal/experiments"
	"dcm/internal/graph"
	"dcm/internal/invariant"
	"dcm/internal/lb"
	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/monitor"
	"dcm/internal/ntier"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
	"dcm/internal/workload"
)

// Each workload is built from the simulator's public constructors in the
// same order as its library entry point (experiments.RunScenario,
// RunGraph, RunMillionSmoke), so the driver can time set-up apart from the
// run, reach the engine, and wrap the calls it makes into each layer.
// selfcheck_test.go proves each build simulates byte-for-byte what the
// library entry point does.

// workloadDef is one named benchmark workload. README.md gives why each
// was chosen.
type workloadDef struct {
	name string
	// subRuns is how many distinct sub-seeds one benchmark run cycles
	// through. The simulated metrics are aggregated over them, because a
	// single Fig. 5 simulation's tail latency depends strongly on where the
	// seed puts the trace's bursts: its p95 sits at the knee between
	// ordinary and burst seconds.
	subRuns int
	build   func(o runOpts, seed uint64) (*instance, error)
}

var workloads = []workloadDef{
	{name: "fig5-dcm", subRuns: 16, build: buildFig5},
	{name: "fanout5-burst", subRuns: 4, build: buildFanout5},
	{name: "million-smoke", subRuns: 4, build: buildSmoke},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// subSeed derives the seed of sub-run i; sub-run 0 uses the seed itself.
func subSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9E3779B97F4A7C15 }

// runOpts selects what a run attaches.
type runOpts struct {
	repo  string    // repository root; topologies/ is read from it
	rec   *recorder // non-nil: record spans and wrap Target and Controller
	check bool      // attach the invariant checker and sweep after every step
	step  bool      // run the engine one simulated second at a time
	// onStep, when set, is called before (begin) and after each step.
	onStep func(t time.Duration, begin bool)
	// probe, when set, is measured before every step, and the run is
	// stepped (see probe.go).
	probe *hostProbe
}

// instance is one built, not yet run, simulation.
type instance struct {
	eng     *sim.Engine
	horizon time.Duration
	chk     *invariant.Checker
	sweep   func() // application-level invariant sweep; nil when there is no application
	finish  func() (outcome, error)

	peakPending int // sampled between steps

	probeTime time.Duration // total duration of the probes run between steps
	probes    int
}

// outcome is what one simulation produced.
type outcome struct {
	canon any // canonical simulated result; hashed into the digest

	attempts, ok, failed, inFlight uint64
	// rtMS is the workload's simulated tail response time in ms (see the
	// README for each workload's definition). rtSeries, when set, is the
	// per-second series (seconds) rtMS is the p95 of; a run pools the series
	// of its sub-runs.
	rtMS     float64
	rtSeries []float64
	layer    layerCounts
}

// layerCounts are simulated per-layer counts read after the run.
type layerCounts struct {
	visits        uint64
	queueDepthP95 float64
	poolAcquires  uint64
	poolWaits     uint64
	poolWaitP95   float64 // seconds
	rejected      uint64
	shed          uint64
	evaluations   uint64
	actions       uint64
	busMessages   uint64
}

// run drives the engine to the horizon, in one call or stepped.
func (in *instance) run(o runOpts) error {
	if !o.step && o.probe == nil {
		return in.eng.Run(in.horizon)
	}
	for t := time.Second; ; t += time.Second {
		if t > in.horizon {
			t = in.horizon
		}
		if o.probe != nil {
			in.probeTime += o.probe.measure()
			in.probes++
		}
		if o.onStep != nil {
			o.onStep(t, true)
		}
		id := o.rec.begin("step")
		err := in.eng.Run(t)
		o.rec.end(id)
		if o.onStep != nil {
			o.onStep(t, false)
		}
		if p := in.eng.Pending(); p > in.peakPending {
			in.peakPending = p
		}
		if in.chk != nil {
			if in.sweep != nil {
				in.sweep()
			}
			invariant.CheckEngine(in.chk, in.eng)
		}
		if err != nil {
			return err
		}
		if t == in.horizon {
			return nil
		}
	}
}

// digestOf hashes the canonical JSON of a simulated result.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// fig5Result is the canonical simulated result of a Fig. 5 run: the
// fields of experiments.ScenarioResult that the run's simulation decides.
type fig5Result struct {
	Seconds         []float64           `json:"seconds"`
	Throughput      []float64           `json:"throughput"`
	MeanRTSec       []float64           `json:"meanRTSec"`
	P95RTSec        []float64           `json:"p95RTSec"`
	TierCounts      map[string][]int    `json:"tierCounts"`
	Actions         []core.ActionRecord `json:"actions"`
	VMEvents        []cloud.Event       `json:"vmEvents"`
	TotalCompleted  uint64              `json:"totalCompleted"`
	TotalErrors     uint64              `json:"totalErrors"`
	FinalAllocation model.Allocation    `json:"finalAllocation"`
}

// fig5FromScenario extracts the canonical result from the library's.
func fig5FromScenario(r *experiments.ScenarioResult) fig5Result {
	return fig5Result{
		Seconds:         r.Seconds,
		Throughput:      r.Throughput,
		MeanRTSec:       r.MeanRTSec,
		P95RTSec:        r.P95RTSec,
		TierCounts:      r.TierCounts,
		Actions:         r.Actions,
		VMEvents:        r.VMEvents,
		TotalCompleted:  r.TotalCompleted,
		TotalErrors:     r.TotalErrors,
		FinalAllocation: r.FinalAllocation,
	}
}

// buildFig5 is experiments.RunScenario for the DCM controller with every
// option at its default: the synthetic large-variation trace, 3 s think
// time, 1000/200/40 initial allocation, resilience off.
func buildFig5(o runOpts, seed uint64) (*instance, error) {
	rec := o.rec
	s := rec.begin("setup.trace")
	tr := trace.SynthesizeLargeVariation(seed)
	rec.end(s)

	s = rec.begin("setup.app")
	eng := sim.NewEngine()
	root := rng.New(seed)
	appCfg := ntier.DefaultConfig()
	appCfg.WebThreads, appCfg.AppThreads, appCfg.DBConnsPerApp = 1000, 200, 40
	app, err := ntier.New(eng, root.Split("app"), appCfg)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("fig5 app: %w", err)
	}
	in := &instance{eng: eng, horizon: tr.Duration() + 30*time.Second}
	if o.check {
		in.chk = invariant.New()
		app.SetInvariantChecker(in.chk)
		invariant.AttachEngine(in.chk, eng)
		in.sweep = app.CheckInvariants
	}

	s = rec.begin("setup.controller")
	tomcat, mysql := experiments.TrainedModels()
	dcm, err := controller.NewDCM(controller.DCMConfig{
		Policy:      controller.DefaultPolicy(),
		TomcatModel: tomcat,
		MySQLModel:  mysql,
	})
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("fig5 controller: %w", err)
	}
	var ctrl controller.Controller = dcm
	if rec != nil {
		ctrl = &tracedController{inner: dcm, rec: rec}
	}

	s = rec.begin("setup.framework")
	fw, err := core.New(eng, app, ctrl, core.Config{MonitorInterval: time.Second})
	if err == nil {
		err = fw.Start()
	}
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("fig5 framework: %w", err)
	}

	s = rec.begin("setup.workload")
	wl, err := workload.NewTraceDriven(eng, root.Split("wl"), wrapTarget(app, rec), tr, 3*time.Second, time.Second)
	if err == nil {
		wl.Start()
	}
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("fig5 workload: %w", err)
	}

	tiers := ntier.Tiers()
	counts := make(map[string][]int, len(tiers))
	for _, t := range tiers {
		counts[t] = make([]int, 0, int(in.horizon/time.Second)+1)
	}
	stopSampler := eng.Ticker(time.Second, func() {
		for _, t := range tiers {
			counts[t] = append(counts[t], app.ServerCount(t)+fw.VMAgent().Pending(t))
		}
	})

	in.finish = func() (outcome, error) {
		stopSampler()
		wl.Stop()
		fw.Stop()
		msgs, err := fw.Bus().Fetch(monitor.TopicSystemMetrics, 0, 0)
		if err != nil {
			return outcome{}, fmt.Errorf("fig5 series: %w", err)
		}
		r := fig5Result{
			Throughput:      make([]float64, 0, len(msgs)),
			MeanRTSec:       make([]float64, 0, len(msgs)),
			P95RTSec:        make([]float64, 0, len(msgs)),
			TierCounts:      counts,
			Actions:         fw.Actions(),
			VMEvents:        fw.Hypervisor().Events(),
			TotalCompleted:  app.TotalCompletions(),
			TotalErrors:     app.TotalErrors(),
			FinalAllocation: app.Allocation(),
		}
		axis := metrics.NewSeries("system")
		for _, m := range msgs {
			smp, ok := m.Value.(monitor.SystemSample)
			if !ok {
				continue
			}
			axis.Append(smp.At, smp.Throughput)
			r.Throughput = append(r.Throughput, smp.Throughput)
			r.MeanRTSec = append(r.MeanRTSec, smp.MeanRTSeconds)
			r.P95RTSec = append(r.P95RTSec, smp.P95RTSeconds)
		}
		r.Seconds = make([]float64, 0, axis.Len())
		for _, smp := range axis.Samples() {
			r.Seconds = append(r.Seconds, smp.At.Seconds())
		}
		for t, c := range counts {
			if len(c) > len(r.Seconds) {
				counts[t] = c[:len(r.Seconds)]
			}
		}

		out := outcome{
			canon:    r,
			attempts: app.TotalInjected(),
			ok:       app.TotalCompletions(),
			failed:   app.TotalErrors(),
			inFlight: uint64(app.InFlight()),
		}
		if len(r.P95RTSec) > 0 {
			out.rtMS = metrics.Summarize(r.P95RTSec).P95 * 1000
			out.rtSeries = r.P95RTSec
		}
		out.layer = graphCounts(app.Graph())
		out.layer.actions = uint64(len(r.Actions))
		if tc, ok := ctrl.(*tracedController); ok {
			out.layer.evaluations = tc.evaluations
		}
		for _, topic := range fw.Bus().Topics() {
			out.layer.busMessages += uint64(fw.Bus().EndOffset(topic))
		}
		return out, nil
	}
	return in, nil
}

// graphCounts reads the data-plane counts every graph run reports.
func graphCounts(app *graph.App) layerCounts {
	var lc layerCounts
	for _, v := range app.NodeVisits() {
		lc.visits += v.Started
	}
	for _, name := range app.NodeNames() {
		hs, err := app.NodeHistograms(name)
		if err != nil || hs.QueueDepth == nil {
			continue
		}
		lc.queueDepthP95 = max(lc.queueDepthP95, hs.QueueDepth.Quantile(0.95))
		if hs.PoolWait == nil {
			continue
		}
		lc.poolAcquires += hs.PoolWait.Count()
		// The first bucket holds the grants that did not wait.
		if b := hs.PoolWait.Buckets(); len(b) > 0 {
			lc.poolWaits += hs.PoolWait.Count() - b[0].Count
		}
		lc.poolWaitP95 = max(lc.poolWaitP95, hs.PoolWait.Quantile(0.95))
	}
	d := app.Dispositions()
	lc.rejected, lc.shed = d.Rejected, d.Shed
	if b := app.Bus(); b != nil {
		for _, topic := range b.Topics() {
			lc.busMessages += uint64(b.EndOffset(topic))
		}
	}
	return lc
}

// fanout5 run parameters: experiments.GraphConfig defaults (150 req/s base
// rate, 1 s timeout, 5 s control period) with the horizon stretched from
// 120 s to 600 s and the per-node controllers armed.
const (
	fanoutHorizon = 600 * time.Second
	fanoutRate    = 150.0
	fanoutTimeout = time.Second
	fanoutPeriod  = 5 * time.Second
)

func fanoutTopology(repo string) string { return filepath.Join(repo, "topologies", "fanout5.json") }

// buildFanout5 is experiments.RunGraph on topologies/fanout5.json with
// Controllers set and the horizon above.
func buildFanout5(o runOpts, seed uint64) (*instance, error) {
	rec := o.rec
	s := rec.begin("setup.spec")
	spec, err := graph.LoadSpec(fanoutTopology(o.repo))
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("fanout5 topology: %w", err)
	}

	s = rec.begin("setup.app")
	eng := sim.NewEngine()
	root := rng.New(seed)
	res, err := resilience.Preset("full", fanoutTimeout)
	if err != nil {
		rec.end(s)
		return nil, fmt.Errorf("fanout5 resilience: %w", err)
	}
	app, err := graph.New(eng, root.Split("graph"), graph.Config{
		Spec:       spec,
		Policy:     lb.LeastConnections,
		Resilience: *res,
		Classes: []graph.Class{
			{Name: "premium", Priority: 1, SLO: fanoutTimeout / 2},
			{Name: "basic"},
		},
	})
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("fanout5 app: %w", err)
	}
	in := &instance{eng: eng, horizon: fanoutHorizon}
	if o.check {
		in.chk = invariant.New()
		app.SetInvariantChecker(in.chk)
		invariant.AttachEngine(in.chk, eng)
		in.sweep = app.CheckInvariants
	}

	s = rec.begin("setup.workload")
	peak := 4 * fanoutRate
	wspec := workload.WorkloadSpec{
		Name: "graph-bursty",
		Kind: workload.KindOpen,
		Arrivals: &workload.RateSpec{
			Curve:       workload.CurveFlashCrowd,
			Rate:        fanoutRate,
			PeakRate:    peak,
			AtSeconds:   (fanoutHorizon / 4).Seconds(),
			RampSeconds: 10,
			HoldSeconds: (fanoutHorizon / 2).Seconds(),
		},
		Classes: []workload.ClassSpec{
			{Name: "premium", Weight: 0.2, Priority: 1, SLOSeconds: (fanoutTimeout / 2).Seconds()},
			{Name: "basic", Weight: 0.8},
		},
	}
	var gen workload.Generator
	if err = wspec.Validate(); err == nil {
		gen, err = wspec.Build(eng, root.Split("wl"), wrapTarget(app, rec))
	}
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("fanout5 workload: %w", err)
	}
	ol, ok := gen.(*workload.OpenLoopGen)
	if !ok {
		return nil, fmt.Errorf("fanout5 workload: generator is %T, want an open loop", gen)
	}

	// The per-node DCM controllers: each period, steer every armed node's
	// thread pool to the Equation 7 optimum of its burst law.
	targets := make(map[string]int)
	var evaluations, actions uint64
	for _, ns := range spec.Nodes {
		if !ns.Controller {
			continue
		}
		name, m := ns.Name, ns.Model
		_ = eng.Ticker(fanoutPeriod, func() {
			id := rec.begin("controller.evaluate")
			evaluations++
			if nb, ok := m.OptimalConcurrencyInt(); ok && nb >= 1 {
				targets[name] = nb
				_ = app.SetNodeThreads(name, nb)
				actions++
			}
			rec.end(id)
		})
	}
	ol.Start()

	in.finish = func() (outcome, error) {
		ol.Stop()
		r := experiments.GraphResult{
			Topology:     spec.Name,
			Entry:        spec.Entry,
			Rate:         fanoutRate,
			PeakRate:     peak,
			Horizon:      fanoutHorizon,
			Scheduled:    ol.Scheduled(),
			Goodput:      app.TotalGood(),
			Completed:    app.TotalCompletions(),
			Errors:       app.TotalErrors(),
			Dispositions: app.Dispositions(),
			Events:       eng.Processed(),
		}
		if len(targets) > 0 {
			r.ControllerTargets = targets
		}
		st := app.TakeStats()
		ledger := app.NodeVisits()
		for i, name := range app.NodeNames() {
			row := experiments.GraphNodeRow{
				Name:          name,
				Kind:          spec.Nodes[i].Kind,
				Members:       app.MemberCount(name),
				MeanResidence: st.NodeResidence[name],
			}
			if row.Kind == "" {
				row.Kind = graph.KindService
			}
			if th, err := app.NodeThreads(name); err == nil {
				row.Threads = th
			}
			if lv, ok := ledger[name]; ok {
				row.Started = lv.Started
				row.InFlight = lv.InFlight
				row.Dispositions = lv.Dispositions
			}
			if row.Kind == graph.KindCache {
				row.CacheHits, row.CacheMisses, _ = app.CacheStats(name)
			}
			r.Nodes = append(r.Nodes, row)
		}
		r.AsyncSpawned, r.AsyncDone, r.AsyncInFlight = app.AsyncLedger()

		out := outcome{
			canon:    r,
			attempts: r.Scheduled,
			ok:       r.Completed,
			failed:   r.Errors,
			inFlight: uint64(app.InFlight()),
			rtMS:     st.RT.P95 * 1000,
			layer:    graphCounts(app),
		}
		out.layer.evaluations, out.layer.actions = evaluations, actions
		return out, nil
	}
	return in, nil
}

// smokePeak is the million-smoke population peak. RunMillionSmoke defaults
// to 10^6 users (about 9 s of host time per simulation on a 2-core Xeon);
// a benchmark run repeats the simulation, so the peak is lowered to keep
// several repetitions inside one run.
const smokePeak = 400_000

// smokeTarget completes every request after a fixed latency, like the
// library smoke's target, and counts the requests still in flight.
type smokeTarget struct {
	eng      *sim.Engine
	lat      time.Duration
	inFlight uint64
}

func (t *smokeTarget) Inject(done func(rt time.Duration, ok bool)) {
	t.inFlight++
	t.eng.Schedule(t.lat, func() {
		t.inFlight--
		done(t.lat, true)
	})
}

// buildSmoke is experiments.RunMillionSmoke with PeakUsers = smokePeak and
// every other option at its default (40 s sine ramp, 3 s think, 1 ms
// target).
func buildSmoke(o runOpts, seed uint64) (*instance, error) {
	rec := o.rec
	s := rec.begin("setup.trace")
	const total = 40 * time.Second
	mean := (smokePeak*3 + 4) / 5
	tr, err := trace.SynthesizeSine("million-sine", mean, smokePeak-mean, total/2, total, time.Second)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("smoke trace: %w", err)
	}

	s = rec.begin("setup.workload")
	eng := sim.NewEngine()
	root := rng.New(seed)
	target := &smokeTarget{eng: eng, lat: time.Millisecond}
	wl, err := workload.NewTraceDriven(eng, root.Split("wl"), target, tr, 3*time.Second, time.Second)
	if err != nil {
		rec.end(s)
		return nil, fmt.Errorf("smoke workload: %w", err)
	}
	in := &instance{eng: eng, horizon: tr.Duration()}
	if o.check {
		in.chk = invariant.New()
		invariant.AttachEngine(in.chk, eng)
	}
	res := experiments.MillionSmokeResult{Trace: tr.Name(), PeakUsers: tr.MaxUsers(), Horizon: in.horizon}
	// The smoke's simulated response time is read through Little's law
	// each simulated second: requests in flight over that second's
	// completions. (Each request's own latency is the constant 1 ms.)
	var rts []float64
	var lastDone uint64
	stopSample := eng.Ticker(time.Second, func() {
		if p := eng.Pending(); p > res.PeakPending {
			res.PeakPending = p
		}
		live := wl.Loop().Live()
		if live > res.PeakLive {
			res.PeakLive = live
		}
		done := wl.Loop().TotalCompleted()
		if d := done - lastDone; d > 0 {
			rts = append(rts, float64(target.inFlight)/float64(d))
		}
		lastDone = done
	})
	wl.Start()
	rec.end(s)

	in.finish = func() (outcome, error) {
		wl.Stop()
		stopSample()
		res.Events = eng.Processed()
		res.Completed = wl.Loop().TotalCompleted()
		out := outcome{
			canon:    res,
			attempts: wl.Loop().TakeStats().Issued,
			ok:       res.Completed,
			inFlight: target.inFlight,
		}
		if len(rts) > 0 {
			out.rtMS = metrics.Summarize(rts).P95 * 1000
			out.rtSeries = rts
		}
		return out, nil
	}
	return in, nil
}

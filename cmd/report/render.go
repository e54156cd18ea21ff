// Report section renderers, split from run() so each section can be
// golden-file tested against deterministic small-scale runs: the renderers
// are pure functions of already-computed experiment results.

package main

import (
	"fmt"
	"strconv"
	"strings"

	"dcm/internal/autotune"
	"dcm/internal/bench"
	"dcm/internal/degrade"
	"dcm/internal/experiments"
	"dcm/internal/metrics"
	"dcm/internal/trace"
)

// fig5Section renders the Fig. 5 controller-comparison table.
func fig5Section(results ...*experiments.ScenarioResult) string {
	var b strings.Builder
	b.WriteString("## Figure 5: DCM vs EC2-AutoScale under the large-variation trace\n\n```\n")
	b.WriteString(experiments.RenderScenarioComparison(results...))
	b.WriteString("```\n\n")
	return b.String()
}

// scenarioDetailSection renders one scenario's response-time chart, its
// per-second CSV pointer, the per-tier latency breakdown and — when the
// run captured an audit log — the controller decision summary.
func scenarioDetailSection(res *experiments.ScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s response time (s)\n\n```\n", res.Kind)
	b.WriteString(metrics.Chart("", res.MeanRTSec, 100, 6))
	b.WriteString("```\n\n")
	fmt.Fprintf(&b, "Per-second series: `fig5-%s.csv`.\n\n", res.Kind)
	fmt.Fprintf(&b, "### %s per-tier latency breakdown\n\n```\n", res.Kind)
	b.WriteString(trace.RenderBreakdown(res.LatencyBreakdown))
	b.WriteString("\n")
	b.WriteString(experiments.RenderTierLatency(res))
	b.WriteString("```\n\n")
	b.WriteString(auditSection(res))
	return b.String()
}

// auditSection renders the controller decision audit summary — the
// per-code tallies plus, for planner-equipped controllers, the clamp
// diagnostics (raw vs applied concurrency knobs whenever a floor or
// ceiling fired) — or nothing when the run did not capture a log.
func auditSection(res *experiments.ScenarioResult) string {
	log := res.DecisionLog()
	if log == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### %s controller decision audit\n\n```\n", res.Kind)
	b.WriteString(log.RenderSummary())
	if diag := log.RenderPlanDiag(); diag != "" {
		b.WriteString(diag)
	}
	b.WriteString("```\n\n")
	return b.String()
}

// autotuneSection renders a previously generated autotune Pareto report
// (see cmd/autotune) as a markdown section.
func autotuneSection(rep *autotune.Report) string {
	var b strings.Builder
	b.WriteString("## Policy autotuning: SLO attainment vs server-hours\n\n```\n")
	b.WriteString(autotune.RenderReport(rep))
	b.WriteString("```\n\n")
	b.WriteString("Each frontier row is a policy no other evaluated candidate beats on " +
		"both axes: attainment (fraction of run seconds within the SLO, discounted " +
		"by failed requests, averaged over the portfolio) and server-hours " +
		"(summed scalable-tier VM time). Regenerate with `cmd/autotune`.\n\n")
	return b.String()
}

// benchSection renders the performance trajectory: a fresh
// BENCH_engine.json (from `go test -bench` output via cmd/benchgate)
// compared benchmark-by-benchmark against the checked-in baseline.
func benchSection(baseline, current bench.Suite, baselinePath string) string {
	var b strings.Builder
	b.WriteString("## Performance trajectory: event-core benchmarks\n\n```\n")
	deltas := bench.Compare(baseline, current, bench.DefaultTolerance)
	bench.Render(&b, deltas)
	b.WriteString("```\n\n")
	fmt.Fprintf(&b, "Current run vs the checked-in baseline `%s`. CI gates the same "+
		"comparison (cmd/benchgate): more than %.0f%% ns/op regression or any "+
		"allocs/op growth on a baselined benchmark fails the bench job.\n\n",
		baselinePath, bench.DefaultTolerance*100)
	for _, d := range deltas {
		if d.Normalized {
			fmt.Fprintf(&b, "ns/op deltas are ratios to %s from the same go test run.\n\n",
				bench.ReferenceBenchmark)
			break
		}
	}
	return b.String()
}

// detectorStrip renders the degrade supervisor's per-tick state as a
// one-line strip using the same bucketing as metrics.Chart: each cell is
// 'B' if any tick in its bucket sat inside a brownout episode, '!' if any
// detector flagged without a brownout, and '.' when healthy.
func detectorStrip(tl []degrade.TimelinePoint, width int) string {
	if len(tl) == 0 {
		return ""
	}
	cells := len(tl)
	if width > 0 && cells > width {
		cells = width
	}
	var b strings.Builder
	for i := 0; i < cells; i++ {
		start := i * len(tl) / cells
		end := (i + 1) * len(tl) / cells
		if end <= start {
			end = start + 1
		}
		c := byte('.')
		for _, pt := range tl[start:end] {
			if pt.Brownout {
				c = 'B'
				break
			}
			if pt.Unhealthy {
				c = '!'
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

// degradationSection renders the self-healing overload-control evaluation:
// the degrade rung's detector timeline (goodput chart plus the per-tick
// detector/brownout strip), its episode and recovery summary, and the
// flash crowd's per-class brownout shed discrimination. Results without a
// degrade report contribute nothing.
func degradationSection(storm experiments.RetryStormResult, fc *experiments.OpenLoopResult) string {
	var b strings.Builder
	wrote := false
	if storm.Degrade != nil {
		wrote = true
		b.WriteString("## Degradation: self-healing overload control\n\n")
		b.WriteString("### Retry storm, degrade rung\n\n```\n")
		good := make([]float64, 0, len(storm.Degrade.Timeline))
		for _, pt := range storm.Degrade.Timeline {
			good = append(good, pt.GoodPS)
		}
		b.WriteString(metrics.Chart("goodput/s per detector tick", good, 100, 6))
		if strip := detectorStrip(storm.Degrade.Timeline, 100); strip != "" {
			fmt.Fprintf(&b, "state: %s\n", strip)
			b.WriteString("       (. healthy  ! detector flagged  B brownout episode)\n")
		}
		b.WriteString("\n")
		b.WriteString(experiments.RenderDegradeSummary(storm))
		b.WriteString("```\n\n")
		b.WriteString("The detectors ride lifetime counters only (goodput-collapse ratio, " +
			"retry amplification, queue-delay gradient); hysteresis holds each " +
			"brownout for the configured dwell before restoring, and the recovery " +
			"criterion is tail goodput at >= 80% of the pre-fault steady state.\n\n")
	}
	if fc != nil && fc.Degrade != nil {
		if !wrote {
			b.WriteString("## Degradation: self-healing overload control\n\n")
		}
		wrote = true
		b.WriteString("### Flash crowd: brownout class discrimination\n\n```\n")
		tb := metrics.NewTable("class", "priority", "injected", "completed", "good", "brownout-shed")
		for _, c := range fc.Classes {
			tb.AddRow(c.Name, strconv.Itoa(c.Priority),
				strconv.FormatUint(c.Injected, 10),
				strconv.FormatUint(c.Completions, 10),
				strconv.FormatUint(c.Good, 10),
				strconv.FormatUint(c.BrownoutShed, 10))
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
		fmt.Fprintf(&b, "detector: %d ticks, %d unhealthy, %d brownout episode(s)\n",
			fc.Degrade.Ticks, fc.Degrade.UnhealthyTicks, len(fc.Degrade.Episodes))
		for _, ep := range fc.Degrade.Episodes {
			exit := "open at horizon"
			if ep.ExitAt > 0 {
				exit = fmt.Sprintf("exit t=%v", ep.ExitAt)
			}
			fmt.Fprintf(&b, "          enter t=%v  %s  (%s)\n", ep.EnterAt, exit, ep.Reason)
		}
		b.WriteString("```\n\n")
		b.WriteString("Brownout sheds are priority-aware: only Priority 0 (best-effort) " +
			"classes are dropped at the front door, so the premium class rides " +
			"through the crowd untouched while the basic class absorbs the " +
			"degradation.\n\n")
	}
	return b.String()
}

// topologySection renders the service-graph topology run: the fanout5
// DAG under bursty arrivals with chaos and the per-node DCM controllers
// armed, summarized by the per-node visit ledger. RenderGraph is
// deterministic for a fixed seed (wall time is JSON-only), so the section
// goldens cleanly.
func topologySection(res experiments.GraphResult) string {
	var b strings.Builder
	b.WriteString("## Service graph: DCM on a DAG topology\n\n```\n")
	b.WriteString(experiments.RenderGraph(res))
	b.WriteString("```\n\n")
	b.WriteString("The 5-node fan-out app (gateway -> search/catalog -> shared DB, plus an " +
		"async audit sink) rides a flash-crowd arrival curve while one replica " +
		"is crashed mid-run and later replaced; the per-node controllers steer " +
		"each armed tier's thread pool to its Equation 7 optimum. Other " +
		"topologies live in `topologies/` and run via " +
		"`sweep -experiment graph -topology <file>`.\n\n")
	return b.String()
}

// resilienceSection renders the data-plane resilience evaluation: the
// Fig. 5 scenario per controller under the "full" preset with the request
// disposition taxonomy, and the retry-storm ladder showing goodput
// recovery under a degraded-server fault.
func resilienceSection(results []*experiments.ScenarioResult, storm []experiments.RetryStormResult) string {
	var b strings.Builder
	b.WriteString("## Resilience\n\n")
	b.WriteString("### Request dispositions under the \"full\" preset (large-variation trace)\n\n```\n")
	b.WriteString(experiments.RenderScenarioComparison(results...))
	b.WriteString(experiments.RenderDispositionSummary(results...))
	b.WriteString("```\n\n")
	b.WriteString("### Retry-storm ladder under a degraded Tomcat\n\n```\n")
	b.WriteString(experiments.RenderRetryStorm(storm))
	b.WriteString("```\n\n")
	b.WriteString("Goodput climbs the ladder: no resilience traps the closed-loop users " +
		"behind the degraded server, retries alone free them but amplify load " +
		"(the storm), and breakers plus admission control restore goodput by " +
		"routing around the sick server and shedding standing-queue delay.\n\n")
	return b.String()
}

// Command dcmsim runs a §V-B scaling scenario — DCM or a baseline
// controller against a bursty workload trace — and prints the Fig. 5-style
// time series and summary. Run with -h for flags; -compare adds the
// EC2-AutoScale baseline next to the chosen controller.
//
// With -topology the command instead drives the named service-graph
// topology (see topologies/) through the graph experiment: bursty
// arrivals, per-node DCM controllers on armed nodes, and the per-node
// ledger report. -seed, -timeout, -invariants and -pprof apply; any
// other flag set alongside -topology is rejected.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dcm/cmd/internal/obs"
	"dcm/internal/experiments"
	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcmsim", flag.ContinueOnError)
	var (
		controllerName = fs.String("controller", "dcm", "dcm | ec2-autoscale | target-tracking | dcm-predictive | ec2-predictive | dcm-soft-only | none")
		traceFile      = fs.String("trace", "", `trace CSV file ("seconds,users"); empty = synthetic large-variation trace`)
		seed           = fs.Uint64("seed", 42, "random seed")
		period         = fs.Duration("period", 15*time.Second, "control period")
		prep           = fs.Duration("prep", 15*time.Second, "VM preparation period")
		think          = fs.Duration("think", 3*time.Second, "client think time")
		every          = fs.Int("every", 10, "print every N-th second of the series")
		compare        = fs.Bool("compare", false, "also run the ec2-autoscale baseline and print a comparison")
		csvOut         = fs.String("csv", "", "also write the per-second series to this CSV file")
		reqTrace       = fs.String("reqtrace", "", "write the request-level trace (one span event per tier hop) to this JSONL file and print the per-tier latency breakdown")
		auditOut       = fs.String("audit", "", "write the controller decision audit log to this JSONL file and print its reason-code summary")
		pprofOut       = fs.String("pprof", "", "write a CPU profile of the run to this file")
		resil          = fs.String("resilience", "off", "data-plane resilience preset: off | timeout | retries | full")
		reqTimeout     = fs.Duration("timeout", 0, "per-request deadline for the resilience presets (0 = preset default)")
		invariants     = fs.Bool("invariants", false, "run the runtime invariant checker alongside the simulation and fail on any structural-law violation (results are byte-identical)")
		topologyFile   = fs.String("topology", "", "run a service-graph topology spec instead of the chain scenario (see topologies/)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topologyFile != "" {
		// The graph experiment has its own workload and controllers, so a
		// chain-scenario flag next to -topology would be silently ignored.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "topology", "seed", "timeout", "invariants", "pprof":
			default:
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("%s not supported with -topology (only -seed, -timeout, -invariants and -pprof apply)",
				strings.Join(ignored, ", "))
		}
	}
	stopProfile, err := obs.StartCPUProfile(*pprofOut)
	if err != nil {
		return err
	}
	defer stopProfile()

	if *topologyFile != "" {
		res, err := experiments.RunGraph(experiments.GraphConfig{
			Seed:        *seed,
			Topology:    *topologyFile,
			Timeout:     *reqTimeout,
			Controllers: true,
			Invariants:  *invariants,
		})
		if err != nil {
			return err
		}
		fmt.Printf("service graph %s\n\n", *topologyFile)
		fmt.Print(experiments.RenderGraph(res))
		if vs := res.InvariantViolations; len(vs) > 0 {
			fmt.Println("invariant violations:")
			fmt.Print(invariant.Render(vs))
			return fmt.Errorf("%d invariant violation(s)", len(vs))
		}
		return nil
	}

	var tr *trace.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = trace.ParseCSV(*traceFile, f)
		if err != nil {
			return err
		}
	}

	resCfg, err := resilience.Preset(*resil, *reqTimeout)
	if err != nil {
		return err
	}

	cfg := experiments.ScenarioConfig{
		Seed:          *seed,
		Kind:          experiments.ControllerKind(*controllerName),
		Trace:         tr,
		ThinkTime:     *think,
		ControlPeriod: *period,
		PrepDelay:     *prep,
		CaptureTrace:  *reqTrace != "",
		Audit:         *auditOut != "",
		Resilience:    resCfg,
		Invariants:    *invariants,
	}
	res, err := experiments.RunScenario(cfg)
	if err != nil {
		return err
	}

	if *reqTrace != "" {
		if err := obs.WriteRequestTrace(res, *reqTrace); err != nil {
			return err
		}
	}
	if *auditOut != "" {
		if err := obs.WriteAuditLog(res, *auditOut); err != nil {
			return err
		}
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		if err := res.WriteSeriesCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote per-second series to %s\n", *csvOut)
	}

	fmt.Printf("controller %s, trace %q (%d..%d users)\n\n",
		cfg.Kind, traceName(tr), minUsers(res.Users), maxUsers(res.Users))

	users := make([]float64, len(res.Users))
	for i, u := range res.Users {
		users[i] = float64(u)
	}
	fmt.Print(metrics.Chart("users", users, 100, 5))
	fmt.Print(metrics.Chart("throughput (req/s)", res.Throughput, 100, 5))
	fmt.Print(metrics.Chart("mean response time (s)", res.MeanRTSec, 100, 5))
	fmt.Println()
	fmt.Println(experiments.RenderScenarioSeries(res, *every))
	fmt.Println("scaling actions:")
	for _, rec := range res.Actions {
		status := ""
		if rec.Err != "" {
			status = "  ERROR: " + rec.Err
		}
		fmt.Printf("  t=%6.0fs %-14s %-4s [%s] %s%s\n",
			rec.At.Seconds(), rec.Action.Type, rec.Action.Tier, rec.Action.Code,
			rec.Action.Reason, status)
	}
	fmt.Println()

	results := []*experiments.ScenarioResult{res}
	if *compare && cfg.Kind != experiments.ControllerEC2 {
		baseCfg := cfg
		baseCfg.Kind = experiments.ControllerEC2
		base, err := experiments.RunScenario(baseCfg)
		if err != nil {
			return err
		}
		results = append(results, base)
	}
	fmt.Println(experiments.RenderScenarioComparison(results...))
	if disp := experiments.RenderDispositionSummary(results...); disp != "" {
		fmt.Println("request dispositions:")
		fmt.Println(disp)
	}
	if *invariants {
		return obs.ReportInvariants(results...)
	}
	return nil
}

func traceName(tr *trace.Trace) string {
	if tr == nil {
		return "large-variation (synthetic)"
	}
	return tr.Name()
}

func minUsers(users []int) int {
	if len(users) == 0 {
		return 0
	}
	m := users[0]
	for _, u := range users {
		if u < m {
			m = u
		}
	}
	return m
}

func maxUsers(users []int) int {
	m := 0
	for _, u := range users {
		if u > m {
			m = u
		}
	}
	return m
}

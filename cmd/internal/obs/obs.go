// Package obs holds the observability output shared by the scenario
// commands: the CPU profile behind -pprof, the request-trace export behind
// -reqtrace, the decision-audit export behind -audit, and the verdict of
// -invariants. Each is a plain function; every command registers its own
// flags.
package obs

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"dcm/internal/experiments"
	"dcm/internal/invariant"
	"dcm/internal/trace"
)

// StartCPUProfile begins a CPU profile written to path and returns the
// stop function (a no-op for an empty path).
func StartCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// ReportInvariants prints the invariant-checker verdict for each result
// and returns an error if any run recorded structural-law violations.
func ReportInvariants(results ...*experiments.ScenarioResult) error {
	bad := 0
	for _, r := range results {
		if len(r.InvariantViolations) > 0 {
			bad += len(r.InvariantViolations)
			fmt.Printf("invariant violations (%s):\n%s", r.Kind, invariant.Render(r.InvariantViolations))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d invariant violation(s)", bad)
	}
	fmt.Println("invariants: clean (0 violations)")
	return nil
}

// WriteRequestTrace exports the run's raw span events as JSONL and prints
// the per-tier latency breakdown reconstructed from them.
func WriteRequestTrace(res *experiments.ScenarioResult, path string) error {
	rt := res.RequestTrace()
	if rt == nil {
		return fmt.Errorf("no request trace captured")
	}
	if err := writeFile(path, rt.WriteJSONL); err != nil {
		return err
	}
	fmt.Printf("wrote %d trace events to %s (%d dropped)\n\n", rt.Len(), path, rt.Dropped())
	fmt.Print(trace.RenderBreakdown(res.LatencyBreakdown))
	fmt.Println()
	fmt.Println("per-tier histograms:")
	fmt.Print(experiments.RenderTierLatency(res))
	fmt.Println()
	return nil
}

// WriteAuditLog exports the controller decision log as JSONL and prints
// its reason-code summary.
func WriteAuditLog(res *experiments.ScenarioResult, path string) error {
	log := res.DecisionLog()
	if log == nil {
		return fmt.Errorf("controller does not support decision auditing")
	}
	if err := writeFile(path, log.WriteJSONL); err != nil {
		return err
	}
	fmt.Printf("wrote %d audited decisions to %s\n\n", log.Len(), path)
	fmt.Print(log.RenderSummary())
	fmt.Println()
	return nil
}

// writeFile creates path, fills it with write and closes it, reporting
// the first error.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

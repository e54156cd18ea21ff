// benchgate converts `go test -bench` output into the BENCH_engine.json
// artifact and gates it against a checked-in baseline: the CI bench job
// fails when any baselined benchmark regresses more than the tolerance
// band in ns/op, grows its allocs/op at all, or disappears. ns/op is
// gated as a ratio to bench.ReferenceBenchmark from the same `go test`
// invocation, so every bench output file must run it alongside its
// benchmarks; a baseline from one host then gates another.
//
// Usage:
//
//	go test -p 1 ./internal/sim/ ./internal/pkg/ -run '^$' -bench 'ReferenceHeapScheduleFire|...' -benchmem -count=10 -benchtime=300ms | tee bench.txt
//	go run ./cmd/benchgate -o BENCH_engine.json -baseline BENCH_engine.baseline.json bench.txt
//
// Refreshing the baseline after an intentional performance change:
//
//	go run ./cmd/benchgate -update -baseline BENCH_engine.baseline.json bench.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"dcm/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		outPath   = fs.String("o", "", "write parsed results JSON to this path")
		baseline  = fs.String("baseline", "", "baseline JSON to gate against")
		tolerance = fs.Float64("tolerance", bench.DefaultTolerance, "allowed fractional ns/op regression")
		update    = fs.Bool("update", false, "rewrite the baseline from this run instead of gating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no bench output files given")
	}
	var current bench.Suite
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		s, err := bench.ParseText(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %v", path, err)
		}
		// Each file runs the reference; the artifact keeps its first
		// measurement.
		for _, r := range s.Benchmarks {
			if _, dup := current.Find(r.Name); !dup {
				current.Benchmarks = append(current.Benchmarks, r)
			}
		}
	}
	if len(current.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %v", fs.Args())
	}
	if *outPath != "" {
		if err := bench.Save(*outPath, current); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d benchmark results to %s\n", len(current.Benchmarks), *outPath)
	}
	if *baseline == "" {
		return nil
	}
	if *update {
		// Keep the measurement notes the old baseline carries.
		if old, err := bench.Load(*baseline); err == nil {
			for i := range current.Benchmarks {
				if r, ok := old.Find(current.Benchmarks[i].Name); ok {
					current.Benchmarks[i].Note = r.Note
				}
			}
		}
		if err := bench.Save(*baseline, current); err != nil {
			return err
		}
		fmt.Fprintf(out, "baseline %s updated from this run\n", *baseline)
		return nil
	}
	base, err := bench.Load(*baseline)
	if err != nil {
		return err
	}
	for _, s := range []bench.Suite{base, current} {
		for _, r := range s.Benchmarks {
			if r.RefNsPerOp <= 0 {
				return fmt.Errorf("%s has no %s ns/op from its own go test run: ns/op cannot be normalized",
					r.Name, bench.ReferenceBenchmark)
			}
		}
	}
	deltas := bench.Compare(base, current, *tolerance)
	fmt.Fprintf(out, "benchmark trajectory vs %s (tolerance %.0f%% ns/op, 0 allocs/op):\n",
		*baseline, *tolerance*100)
	fmt.Fprintf(out, "ns/op deltas are ratios to %s from the same go test run\n", bench.ReferenceBenchmark)
	bench.Render(out, deltas)
	if regs := bench.Regressions(deltas); len(regs) > 0 {
		for _, d := range regs {
			fmt.Fprintf(out, "FAIL %s: %s\n", d.Name, d.Reason)
		}
		return fmt.Errorf("%d benchmark(s) regressed past the gate", len(regs))
	}
	fmt.Fprintln(out, "benchmark gate passed")
	return nil
}

package bench

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: dcm/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineScheduleFire-4            	22426521	        96.13 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineScheduleFire-4            	24645494	        90.40 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineScheduleFire-4            	23000000	        98.70 ns/op	       1 B/op	       1 allocs/op
BenchmarkEngineScheduleCancel-4          	12529615	       185.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkReferenceHeapScheduleFire-4     	13480815	       172.4 ns/op	      32 B/op	       1 allocs/op
PASS
ok  	dcm/internal/sim	15.039s
`

func TestParseTextAggregates(t *testing.T) {
	t.Parallel()
	s, err := ParseText(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(s.Benchmarks))
	}
	fire := s.Benchmarks[0]
	if fire.Name != "BenchmarkEngineScheduleFire" {
		t.Fatalf("name %q: GOMAXPROCS suffix not stripped", fire.Name)
	}
	// Three runs aggregate: min ns/op, max allocs/op, min B/op.
	if fire.NsPerOp != 90.40 {
		t.Fatalf("ns/op = %v, want the minimum 90.40", fire.NsPerOp)
	}
	if fire.AllocsPerOp != 1 {
		t.Fatalf("allocs/op = %v, want the maximum 1", fire.AllocsPerOp)
	}
	if fire.BPerOp != 0 {
		t.Fatalf("B/op = %v, want the minimum 0", fire.BPerOp)
	}
	ref := s.Benchmarks[2]
	if ref.NsPerOp != 172.4 || ref.BPerOp != 32 || ref.AllocsPerOp != 1 {
		t.Fatalf("single-run benchmark parsed as %+v", ref)
	}
}

func TestParseTextWithoutBenchmem(t *testing.T) {
	t.Parallel()
	s, err := ParseText(strings.NewReader("BenchmarkX-8  100  5.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].NsPerOp != 5.0 || s.Benchmarks[0].AllocsPerOp != 0 {
		t.Fatalf("parsed %+v", s.Benchmarks)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	t.Parallel()
	s, err := ParseText(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(s.Benchmarks) {
		t.Fatalf("round trip lost benchmarks: %d != %d", len(got.Benchmarks), len(s.Benchmarks))
	}
	for i := range got.Benchmarks {
		if got.Benchmarks[i] != s.Benchmarks[i] {
			t.Fatalf("round trip changed %+v to %+v", s.Benchmarks[i], got.Benchmarks[i])
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := Save(path, Suite{}); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "unknown.json")
	if err := os.WriteFile(bad, []byte(`{"benchmarks":[],"extra":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func suiteOf(results ...Result) Suite { return Suite{Benchmarks: results} }

func TestCompareTolerance(t *testing.T) {
	t.Parallel()
	base := suiteOf(Result{Name: "A", NsPerOp: 100, AllocsPerOp: 0})
	cases := []struct {
		name      string
		cur       Result
		regressed bool
	}{
		{"within-band", Result{Name: "A", NsPerOp: 114, AllocsPerOp: 0}, false},
		{"at-band-edge", Result{Name: "A", NsPerOp: 115, AllocsPerOp: 0}, false},
		{"past-band", Result{Name: "A", NsPerOp: 116, AllocsPerOp: 0}, true},
		{"faster", Result{Name: "A", NsPerOp: 40, AllocsPerOp: 0}, false},
		{"alloc-leak", Result{Name: "A", NsPerOp: 90, AllocsPerOp: 1}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			deltas := Compare(base, suiteOf(tc.cur), 0.15)
			if len(deltas) != 1 {
				t.Fatalf("got %d deltas", len(deltas))
			}
			if deltas[0].Regressed != tc.regressed {
				t.Fatalf("regressed = %v (%s), want %v", deltas[0].Regressed, deltas[0].Reason, tc.regressed)
			}
		})
	}
}

func TestCompareMissingAndNew(t *testing.T) {
	t.Parallel()
	base := suiteOf(
		Result{Name: "A", NsPerOp: 100},
		Result{Name: "Gone", NsPerOp: 50},
	)
	cur := suiteOf(
		Result{Name: "A", NsPerOp: 99},
		Result{Name: "Fresh", NsPerOp: 10},
	)
	deltas := Compare(base, cur, 0)
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	if !deltas[1].Missing || !deltas[1].Regressed {
		t.Fatalf("removed benchmark not flagged: %+v", deltas[1])
	}
	if !deltas[2].New || deltas[2].Regressed {
		t.Fatalf("new benchmark misflagged: %+v", deltas[2])
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "Gone" {
		t.Fatalf("regressions = %+v", regs)
	}
}

func TestRender(t *testing.T) {
	t.Parallel()
	base := suiteOf(
		Result{Name: "BenchmarkEngineScheduleFire", NsPerOp: 100, AllocsPerOp: 0},
		Result{Name: "BenchmarkSlow", NsPerOp: 10, AllocsPerOp: 0},
	)
	cur := suiteOf(
		Result{Name: "BenchmarkEngineScheduleFire", NsPerOp: 40, AllocsPerOp: 0},
		Result{Name: "BenchmarkSlow", NsPerOp: 20, AllocsPerOp: 2},
		Result{Name: "BenchmarkFresh", NsPerOp: 5, AllocsPerOp: 0},
	)
	var sb strings.Builder
	Render(&sb, Compare(base, cur, 0.15))
	out := sb.String()
	for _, want := range []string{
		"BenchmarkEngineScheduleFire", "-60.0%",
		"BenchmarkSlow", "REGRESSED", "0 -> 2",
		"BenchmarkFresh", "new",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestCompareNormalizesByReference pins the host-independent ns/op gate:
// ParseText stamps each result with the reference ns/op from its own
// output, and Compare judges each benchmark by that ratio. A host 1.6×
// slower in one run and 2× slower in another passes; a benchmark slower
// than its run's reference explains regresses; results without a
// reference compare as measured.
func TestCompareNormalizesByReference(t *testing.T) {
	t.Parallel()
	parse := func(text string) Suite {
		t.Helper()
		s, err := ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := parse(`BenchmarkReferenceHeapScheduleFire-4  1000  100 ns/op
BenchmarkA-4  1000  1000 ns/op
BenchmarkB-4  1000  50 ns/op
`)
	// Two go test runs on a slower host, each with its own reference.
	runA := parse(`BenchmarkReferenceHeapScheduleFire-2  1000  160 ns/op
BenchmarkA-2  1000  1600 ns/op
`)
	runB := parse(`BenchmarkReferenceHeapScheduleFire-2  1000  200 ns/op
BenchmarkB-2  1000  120 ns/op
`)
	for _, s := range []Suite{base, runA, runB} {
		for _, r := range s.Benchmarks {
			if r.RefNsPerOp != s.Benchmarks[0].NsPerOp {
				t.Fatalf("%s: RefNsPerOp %v, want its run's reference %v", r.Name, r.RefNsPerOp, s.Benchmarks[0].NsPerOp)
			}
		}
	}
	cur := suiteOf(runA.Benchmarks[0], runA.Benchmarks[1], runB.Benchmarks[1])
	for _, d := range Compare(base, cur, 0.15) {
		if !d.Normalized {
			t.Fatalf("%s not normalized", d.Name)
		}
		switch d.Name {
		case ReferenceBenchmark, "BenchmarkA":
			if d.Regressed || math.Abs(d.NsDeltaPct) > 1e-9 {
				t.Fatalf("%s: delta %+.3f%% regressed=%v, want 0%% (same ratio as the baseline)",
					d.Name, d.NsDeltaPct, d.Regressed)
			}
		case "BenchmarkB":
			// Ratio 0.6 against the baseline's 0.5.
			if !d.Regressed || math.Abs(d.NsDeltaPct-20) > 1e-9 {
				t.Fatalf("B: delta %+.3f%% regressed=%v, want +20%% regressed", d.NsDeltaPct, d.Regressed)
			}
		}
	}

	// Without a reference in its run, A's raw +60% is a regression.
	raw := suiteOf(Result{Name: "BenchmarkA", NsPerOp: 1600})
	if d := Compare(base, raw, 0.15); d[1].Normalized || !d[1].Regressed {
		t.Fatalf("A without reference: %+v, want a raw comparison that regresses", d[1])
	}
}

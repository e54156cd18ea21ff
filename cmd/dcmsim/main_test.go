package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcm/internal/trace"
)

func TestRunErrors(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-controller", "bogus"}); err == nil {
		t.Fatal("unknown controller accepted")
	}
	if err := run([]string{"-trace", "/does/not/exist.csv"}); err == nil {
		t.Fatal("missing trace accepted")
	}
	if err := run([]string{"-bad-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// Chain-scenario flags next to -topology are rejected up front rather
	// than silently ignored.
	err := run([]string{"-topology", "../../topologies/chain3.json", "-reqtrace", "x.jsonl", "-audit", "y.jsonl"})
	const want = "-audit, -reqtrace not supported with -topology (only -seed, -timeout, -invariants and -pprof apply)"
	if err == nil || err.Error() != want {
		t.Fatalf("-topology with chain flags: err = %v, want %q", err, want)
	}
}

// TestRunRejectsHostileVisits runs a topology whose parallel edge asks for
// 10⁹ visits per request. It used to pass validation and stall the run
// with no output; it must now fail fast with the loader's pinned error.
func TestRunRejectsHostileVisits(t *testing.T) {
	t.Parallel()
	const path = "../../internal/graph/testdata/hostile-visits.json"
	err := run([]string{"-topology", path, "-seed", "1"})
	const want = "graph: invalid topology: edge a->b visits 1000000000 outside [0, 100] (in " + path + ")"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
}

func TestRunShortScenarioFromFile(t *testing.T) {
	t.Parallel()
	tr, err := trace.SynthesizeStep("s", 200, 1200, 20e9, 60e9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "step.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-controller", "dcm", "-trace", path, "-every", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestUserBounds(t *testing.T) {
	t.Parallel()
	if minUsers(nil) != 0 || maxUsers(nil) != 0 {
		t.Fatal("empty bounds wrong")
	}
	if minUsers([]int{3, 1, 2}) != 1 || maxUsers([]int{3, 1, 2}) != 3 {
		t.Fatal("bounds wrong")
	}
	if traceName(nil) == "" {
		t.Fatal("nil trace name empty")
	}
}

// TestRunWithObservabilityFlags drives -reqtrace, -audit and -pprof end to
// end on a short trace and checks the artifacts land on disk.
func TestRunWithObservabilityFlags(t *testing.T) {
	t.Parallel()
	tr, err := trace.SynthesizeStep("s", 200, 1200, 20e9, 60e9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "step.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "req.jsonl")
	auditPath := filepath.Join(dir, "audit.jsonl")
	profPath := filepath.Join(dir, "cpu.prof")
	err = run([]string{
		"-controller", "dcm", "-trace", csvPath, "-every", "60",
		"-reqtrace", tracePath, "-audit", auditPath, "-pprof", profPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{tracePath, auditPath, profPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("artifact %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("artifact %s is empty", p)
		}
	}
}

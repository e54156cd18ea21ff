package obs

import (
	"os"
	"path/filepath"
	"testing"

	"dcm/internal/experiments"
	"dcm/internal/invariant"
)

func TestStartCPUProfile(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	stop() // no-op for an empty path
	if _, err := StartCPUProfile(filepath.Join(t.TempDir(), "missing", "cpu.prof")); err == nil {
		t.Fatal("profile into a missing directory accepted")
	}
	path := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err = StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
}

func TestReportInvariants(t *testing.T) {
	clean := &experiments.ScenarioResult{Kind: experiments.ControllerDCM}
	if err := ReportInvariants(clean); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	bad := &experiments.ScenarioResult{
		Kind:                experiments.ControllerEC2,
		InvariantViolations: []invariant.Violation{{Rule: invariant.RuleConservation, Where: "graph"}, {Where: "db-1"}},
	}
	err := ReportInvariants(clean, bad)
	if err == nil || err.Error() != "2 invariant violation(s)" {
		t.Fatalf("err = %v, want the violation count", err)
	}
}

func TestWritersNeedCapturedLogs(t *testing.T) {
	res := &experiments.ScenarioResult{}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := WriteRequestTrace(res, path); err == nil {
		t.Fatal("request trace written without a captured trace")
	}
	if err := WriteAuditLog(res, path); err == nil {
		t.Fatal("audit log written without a decision log")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a file was created: %v", err)
	}
}

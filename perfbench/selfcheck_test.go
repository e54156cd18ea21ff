package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dcm/internal/experiments"
)

// The tests run in perfbench/, one level below the repository root.
const testRepo = ".."

// libraryDigest runs the library entry point a workload mirrors and hashes
// its result the way the driver hashes its own.
func libraryDigest(t *testing.T, name string, seed uint64) string {
	t.Helper()
	var canon any
	switch name {
	case "fig5-dcm":
		r, err := experiments.RunScenario(experiments.ScenarioConfig{Seed: seed, Kind: experiments.ControllerDCM})
		if err != nil {
			t.Fatal(err)
		}
		canon = fig5FromScenario(r)
	case "fanout5-burst":
		r, err := experiments.RunGraph(experiments.GraphConfig{
			Seed:        seed,
			Topology:    fanoutTopology(testRepo),
			Horizon:     fanoutHorizon,
			Controllers: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Wall = 0
		canon = r
	case "million-smoke":
		r, err := experiments.RunMillionSmoke(experiments.MillionSmokeConfig{Seed: seed, PeakUsers: smokePeak})
		if err != nil {
			t.Fatal(err)
		}
		r.Wall, r.EventsPerSec = 0, 0
		canon = r
	default:
		t.Fatalf("no library entry point for %q", name)
	}
	d, err := digestOf(canon)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDriverMatchesLibrary shows that the driver's build of each workload
// simulates byte-for-byte what the library entry point does, untraced, with
// the host probe between steps, and under every traced pass.
func TestDriverMatchesLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload several times")
	}
	probe, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			want := libraryDigest(t, w.name, defaultSeed)
			for _, o := range []runOpts{
				{repo: testRepo},
				{repo: testRepo, probe: probe},
				{repo: testRepo, rec: newRecorder("test"), step: true},
				{repo: testRepo, check: true, step: true},
			} {
				r, err := runRep(w, defaultSeed, 0, o, hooks{})
				if err != nil {
					t.Fatal(err)
				}
				if r.digest != want {
					t.Errorf("traced=%v check=%v probed=%v: driver digest %s, library %s",
						o.rec != nil, o.check, o.probe != nil, r.digest, want)
				}
			}
		})
	}
}

// TestPinsMatch checks the pinned digest of every workload at the default
// seed against a fresh run of all its sub-runs.
func TestPinsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sub-run of every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := repeat(w, defaultSeed, w.subRuns, w.subRuns, 0, runOpts{repo: testRepo})
			if len(s.problems) > 0 {
				t.Fatal(s.problems)
			}
			got, _ := s.combinedDigest(w)
			if got != pins[w.name] {
				t.Errorf("digest %s, pinned %s", got, pins[w.name])
			}
		})
	}
}

// TestDigestMismatchFails shows the gate: a run whose simulated digest
// differs from its pin reports correct=false, counts a failed operation
// and exits non-zero.
func TestDigestMismatchFails(t *testing.T) {
	w, _ := workloadByName("million-smoke")
	bad := map[string]string{w.name: strings.Repeat("0", 64)}
	var out bytes.Buffer
	res := timedRun(w, config{seed: defaultSeed, repo: testRepo}, bad, &out)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("mismatched pin accepted: %+v", res)
	}
	if code := emit(&out, res); code == 0 {
		t.Error("exit code 0 on a digest mismatch")
	}
	if !strings.Contains(out.String(), "does not match the pinned") {
		t.Errorf("output does not name the mismatch:\n%s", out.String())
	}
	// The same run against the real pin passes.
	if res := timedRun(w, config{seed: defaultSeed, repo: testRepo}, pins, &out); !res.Correct {
		t.Errorf("run against the real pin failed: %+v", res)
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json in step with the metrics the
// driver prints.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile(testRepo + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, driver has %v", names, want)
	}
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEndNames, ",") {
		t.Errorf("end_to_end %v, driver prints %v", e2e, endToEndNames)
	}
	units := endToEnd(workloads[0], &runSet{first: map[int]rep{}})
	for _, m := range spec.EndToEnd {
		if units[m.Name].Unit != m.Unit {
			t.Errorf("%s: unit %q, driver prints %q", m.Name, m.Unit, units[m.Name].Unit)
		}
	}
	if strings.Join(layer, ",") != strings.Join(perLayerNames(), ",") {
		t.Errorf("per_layer %v, driver prints %v", layer, perLayerNames())
	}
}

package main

import "testing"

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"background GC", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, "runtime"},
		{"sweeper", []string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, "runtime"},
		{"scavenger", []string{"runtime.madvise", "runtime.bgscavenge", "runtime.goexit"}, "runtime"},
		{"mallocgc under graph", []string{
			"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject",
			"dcm/internal/graph.(*App).visitSerial", "dcm/internal/graph.(*App).walkEdges",
			"dcm/internal/sim.(*Engine).Run", "main.(*instance).run",
		}, "graph"},
		{"GC assist charged to the allocating layer", []string{
			"runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"runtime.makeslice", "dcm/internal/metrics.(*Series).Append", "dcm/internal/monitor.(*Fleet).tick",
		}, "metrics"},
		{"stdlib under sim", []string{
			"math/bits.TrailingZeros64", "sort.Search", "dcm/internal/sim.(*Engine).wheelAdvance",
			"dcm/internal/sim.(*Engine).Run",
		}, "sim"},
		{"ntier facade is graph", []string{"dcm/internal/ntier.(*App).Inject", "dcm/internal/workload.(*ClosedLoop).startRequest"}, "graph"},
		{"cloud and actuator are core", []string{"dcm/internal/cloud.(*Hypervisor).Launch", "dcm/internal/core.(*Framework).controlStep"}, "core"},
		{"actuator closure", []string{"dcm/internal/actuator.(*VMAgent).ScaleOut.func1", "dcm/internal/sim.(*Engine).Run"}, "core"},
		{"unlisted dcm package", []string{"dcm/internal/invariant.(*Checker).Violatef", "dcm/internal/server.(*Server).grant"}, "other"},
		{"sub-package", []string{"dcm/internal/invariant/conformance.Check"}, "other"},
		{"driver frame first", []string{"time.Now", "main.(*recorder).begin", "main.(*tracedTarget).Inject", "dcm/internal/workload.(*OpenLoopGen).arrive"}, "other"},
		{"no dcm frame", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule", "runtime.mstart"}, "other"},
		{"empty stack", nil, "other"},
	}
	for _, tc := range cases {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestAttributeTotals(t *testing.T) {
	samples := []sample{
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 7},
		{[]string{"runtime.mallocgc", "dcm/internal/graph.(*App).Inject"}, 11},
		{[]string{"sort.Search", "dcm/internal/sim.(*Engine).Run"}, 13},
		{[]string{"runtime.futex", "runtime.mstart"}, 17},
		{[]string{"runtime.mallocgc", "main.newRecorder"}, 19},
	}
	a := attribute(samples)
	if err := a.checkTotals(); err != nil {
		t.Fatal(err)
	}
	if a.total != 67 {
		t.Errorf("total = %d, want 67", a.total)
	}
	want := map[string]int64{"runtime": 7, "graph": 11, "sim": 13, "other": 36}
	for l, v := range want {
		if a.byLayer[l] != v {
			t.Errorf("%s = %d, want %d", l, a.byLayer[l], v)
		}
	}
	if a.malloc != 30 {
		t.Errorf("malloc = %d, want 30", a.malloc)
	}
	for l := range a.byLayer {
		known := false
		for _, k := range layers {
			known = known || k == l
		}
		if !known {
			t.Errorf("sample charged to unknown layer %q", l)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 1000 samples: 99th has 10 beyond it, 99.9th only 1.
	if v, pct := tail(xs); pct != 99 || v != 990 {
		t.Errorf("tail = %v at p%v, want 990 at p99", v, pct)
	}
	if _, pct := tail(xs[:50]); pct != 50 {
		t.Errorf("tail of 50 samples at p%v, want the median", pct)
	}
}

func TestSubMeanWeighsSubSeedsEqually(t *testing.T) {
	// Sub-seed 0 ran three times, sub-seed 1 once: (2 + 6) / 2, not 12/4.
	reps := []rep{{sub: 0, wall: 1}, {sub: 0, wall: 2}, {sub: 0, wall: 3}, {sub: 1, wall: 6}}
	if got := subMean(reps, func(r rep) float64 { return float64(r.wall) }); got != 4 {
		t.Errorf("subMean = %v, want 4", got)
	}
}

func TestHostProbe(t *testing.T) {
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	if p.residentMB() < probeRingMB {
		t.Errorf("resident %v MB, want at least the %d MB ring", p.residentMB(), probeRingMB)
	}
	// Two laps of the ring: the probe keeps working as it wraps.
	for i := 0; i < 2*probeRingMB<<20/64/probeRecords+1; i++ {
		if d := p.measure(); d <= 0 {
			t.Fatalf("probe %d took %v", i, d)
		}
	}
	var nilProbe *hostProbe
	if nilProbe.residentMB() != 0 {
		t.Error("a nil probe has a resident size")
	}
}

package graph

import (
	"testing"
	"time"

	"dcm/internal/model"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// benchDiamond is the 4-node diamond BenchmarkGraphWalk drives: a
// parallel fan-out, a serial call and a pooled shared DB.
func benchDiamond() Spec {
	law := model.Params{S0: 1e-4, Gamma: 1}
	return Spec{
		Name:  "bench-diamond",
		Entry: "front",
		Nodes: []NodeSpec{
			{Name: "front", Model: law, Threads: 64},
			{Name: "svcA", Model: law, Threads: 16},
			{Name: "svcB", Model: law, Threads: 16},
			{Name: "db", Model: law, Threads: 8},
		},
		Edges: []EdgeSpec{
			{From: "front", To: "svcA", Kind: EdgeParallel, Visits: 2},
			{From: "front", To: "svcB", Visits: 1},
			{From: "svcA", To: "db", Visits: 1, PoolSize: 8},
			{From: "svcB", To: "db", Visits: 1, PoolSize: 8},
		},
	}
}

// BenchmarkGraphWalk measures end-to-end request cost through a 4-node
// diamond — a parallel fan-out, a serial call and a pooled shared DB —
// covering the walker's branch/join/pool machinery. Reported ns/op is
// per completed request, queueing included.
func BenchmarkGraphWalk(b *testing.B) {
	spec := benchDiamond()
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(1).Split("app"), Config{Spec: spec})
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	cb := func(time.Duration, bool) { done++ }
	// Warm the engine's arena so steady state is what gets measured.
	for i := 0; i < 100; i++ {
		app.Inject(cb)
	}
	horizon := time.Second
	if err := eng.Run(horizon); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	goal := done + b.N
	for i := 0; i < b.N; i++ {
		app.Inject(cb)
	}
	for done < goal {
		horizon += time.Second
		if err := eng.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
}

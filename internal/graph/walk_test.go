package graph

import (
	"testing"
	"time"

	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/server"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// newTestApp builds an app over spec with an attached invariant checker.
func newTestApp(t *testing.T, spec Spec, res resilience.Config) (*sim.Engine, *App, *invariant.Checker) {
	t.Helper()
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(1).Split("app"), Config{Spec: spec, Resilience: res})
	if err != nil {
		t.Fatal(err)
	}
	chk := invariant.New()
	app.SetInvariantChecker(chk)
	return eng, app, chk
}

// requireClean fails on any recorded invariant violation.
func requireClean(t *testing.T, app *App, chk *invariant.Checker) {
	t.Helper()
	app.CheckInvariants()
	if vs := chk.Violations(); len(vs) > 0 {
		t.Fatalf("%d invariant violation(s):\n%s", len(vs), invariant.Render(vs))
	}
}

// TestParallelJoinCountsPartialFailureOnce drives a 3-way parallel
// fan-out into a node with one thread and a one-slot admission queue:
// two branches serve, the third is rejected at the door. The join must
// adopt the failed branch's disposition exactly once — the request is one
// Rejected in the whole-graph ledger, not three — while the per-node
// ledger still records every branch visit, and conservation must hold.
func TestParallelJoinCountsPartialFailureOnce(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Name:  "join",
		Entry: "a",
		Nodes: []NodeSpec{
			{Name: "a", Model: testModel(), Threads: 4},
			{Name: "b", Model: testModel(), Threads: 1},
		},
		Edges: []EdgeSpec{{From: "a", To: "b", Kind: EdgeParallel, Visits: 3}},
	}
	eng, app, chk := newTestApp(t, spec, resilience.Config{MaxQueue: 1})

	app.Inject(func(rt time.Duration, ok bool) {
		if ok {
			t.Error("request with a failed branch reported ok")
		}
	})
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}

	d := app.Dispositions()
	if d.Rejected != 1 || d.Total() != 1 {
		t.Fatalf("whole-graph dispositions %+v, want exactly one Rejected", d)
	}
	visits := app.NodeVisits()
	b := visits["b"]
	if b.Started != 3 || b.Dispositions.OK != 2 || b.Dispositions.Rejected != 1 {
		t.Fatalf("node b ledger %+v, want 3 branch visits (2 OK, 1 Rejected)", b)
	}
	a := visits["a"]
	if a.Started != 1 || a.Dispositions.Rejected != 1 {
		t.Fatalf("node a ledger %+v, want the join's single Rejected", a)
	}
	requireClean(t, app, chk)
}

// TestParallelJoinAllBranchesOK is the happy-path control: every branch
// completes, the join is one OK.
func TestParallelJoinAllBranchesOK(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Name:  "join-ok",
		Entry: "a",
		Nodes: []NodeSpec{
			{Name: "a", Model: testModel(), Threads: 4},
			{Name: "b", Model: testModel(), Threads: 4},
		},
		Edges: []EdgeSpec{{From: "a", To: "b", Kind: EdgeParallel, Visits: 3}},
	}
	eng, app, chk := newTestApp(t, spec, resilience.Config{})
	oks := 0
	app.Inject(func(rt time.Duration, ok bool) {
		if ok {
			oks++
		}
	})
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if oks != 1 {
		t.Fatalf("completions %d, want 1", oks)
	}
	if d := app.Dispositions(); d.OK != 1 || d.Total() != 1 {
		t.Fatalf("dispositions %+v", d)
	}
	if b := app.NodeVisits()["b"]; b.Started != 3 || b.Dispositions.OK != 3 {
		t.Fatalf("node b ledger %+v, want 3 OK branch visits", b)
	}
	requireClean(t, app, chk)
}

// TestParallelEdgeTracesEveryVisit checks the request tracer sees each
// branch of a parallel fan-out: with visits = k, every traced request
// records k service-start/service-end pairs at the destination node and
// one pair at the source.
func TestParallelEdgeTracesEveryVisit(t *testing.T) {
	t.Parallel()
	const k, n = 3, 4
	spec := Spec{
		Name:  "fan",
		Entry: "a",
		Nodes: []NodeSpec{
			{Name: "a", Model: testModel(), Threads: 4},
			{Name: "b", Model: testModel(), Threads: 4},
		},
		Edges: []EdgeSpec{{From: "a", To: "b", Kind: EdgeParallel, Visits: k}},
	}
	eng, app, chk := newTestApp(t, spec, resilience.Config{})
	tr := trace.NewRequestTracer(0)
	app.SetRequestTracer(tr)
	for i := 0; i < n; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	type key struct {
		req  uint64
		node string
		kind trace.EventKind
	}
	counts := map[key]int{}
	for _, ev := range tr.Events() {
		counts[key{ev.Req, ev.Tier, ev.Kind}]++
	}
	for req := uint64(1); req <= n; req++ {
		for node, want := range map[string]int{"a": 1, "b": k} {
			for _, kind := range []trace.EventKind{trace.EventServiceStart, trace.EventServiceEnd} {
				if got := counts[key{req, node, kind}]; got != want {
					t.Errorf("request %d node %s: %d %s events, want %d", req, node, got, kind, want)
				}
			}
		}
		if counts[key{req, "", trace.EventDone}] != 1 {
			t.Errorf("request %d has no done event", req)
		}
	}
	requireClean(t, app, chk)
}

// TestAsyncEdgeAccounting pins the fire-and-forget ledger: async
// deliveries never touch the caller's disposition, and every spawn is
// eventually accounted done with the async in-flight gauge back at zero.
func TestAsyncEdgeAccounting(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Name:  "async",
		Entry: "front",
		Nodes: []NodeSpec{
			{Name: "front", Model: testModel(), Threads: 8},
			{Name: "audit", Model: testModel(), Threads: 1},
		},
		Edges: []EdgeSpec{{From: "front", To: "audit", Kind: EdgeAsync, Visits: 2}},
	}
	eng, app, chk := newTestApp(t, spec, resilience.Config{})
	const n = 5
	oks := 0
	for i := 0; i < n; i++ {
		app.Inject(func(rt time.Duration, ok bool) {
			if ok {
				oks++
			}
		})
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if oks != n {
		t.Fatalf("caller completions %d, want %d — async outcomes leaked into callers", oks, n)
	}
	if d := app.Dispositions(); d.OK != n || d.Total() != n {
		t.Fatalf("caller dispositions %+v", d)
	}
	spawned, done, inFlight := app.AsyncLedger()
	if spawned != 2*n || done.OK != 2*n || inFlight != 0 {
		t.Fatalf("async ledger spawned=%d done=%+v inFlight=%d, want %d/%d/0",
			spawned, done, inFlight, 2*n, 2*n)
	}
	if audit := app.NodeVisits()["audit"]; audit.Started != 2*n || audit.Dispositions.OK != 2*n {
		t.Fatalf("audit ledger %+v, want %d delivered visits", audit, 2*n)
	}
	requireClean(t, app, chk)
}

// TestAsyncInFlightAtHorizon stops the clock while deliveries are still
// queued behind the slow audit node: the ledger must show the outstanding
// work, and the conservation sweep must stay clean (spawned = done +
// in-flight is the async invariant, not spawned = done).
func TestAsyncInFlightAtHorizon(t *testing.T) {
	t.Parallel()
	slow := testModel()
	slow.S0 = 50e-3 // 50 ms per delivery through one thread
	spec := Spec{
		Name:  "async-backlog",
		Entry: "front",
		Nodes: []NodeSpec{
			{Name: "front", Model: testModel(), Threads: 8},
			{Name: "audit", Model: slow, Threads: 1},
		},
		Edges: []EdgeSpec{{From: "front", To: "audit", Kind: EdgeAsync, Visits: 1}},
	}
	eng, app, chk := newTestApp(t, spec, resilience.Config{})
	const n = 10
	for i := 0; i < n; i++ {
		app.Inject(func(time.Duration, bool) {})
	}
	// 10 deliveries need ~500 ms; stop at 120 ms with a backlog.
	if err := eng.Run(120 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	spawned, done, inFlight := app.AsyncLedger()
	if spawned != n {
		t.Fatalf("spawned %d, want %d", spawned, n)
	}
	if inFlight == 0 || done.Total() == uint64(n) {
		t.Fatalf("expected an async backlog at the horizon: done=%+v inFlight=%d", done, inFlight)
	}
	if done.Total()+uint64(inFlight) != uint64(n) {
		t.Fatalf("async ledger leak: spawned=%d done=%d inFlight=%d", spawned, done.Total(), inFlight)
	}
	requireClean(t, app, chk)
}

// TestCacheHitRatioShortCircuit pins the cache node semantics at the
// extremes: hit ratio 1 never visits downstream, hit ratio 0 always does.
func TestCacheHitRatioShortCircuit(t *testing.T) {
	t.Parallel()
	build := func(ratio float64) Spec {
		return Spec{
			Name:  "cache",
			Entry: "web",
			Nodes: []NodeSpec{
				{Name: "web", Model: testModel(), Threads: 8},
				{Name: "mc", Kind: KindCache, Model: testModel(), Threads: 8, HitRatio: ratio},
				{Name: "db", Model: testModel(), Threads: 4},
			},
			Edges: []EdgeSpec{
				{From: "web", To: "mc", Visits: 1},
				{From: "mc", To: "db", Visits: 2},
			},
		}
	}
	const n = 20
	for _, tc := range []struct {
		ratio    float64
		dbVisits uint64
	}{{1, 0}, {0, 2 * n}} {
		eng, app, chk := newTestApp(t, build(tc.ratio), resilience.Config{})
		for i := 0; i < n; i++ {
			app.Inject(func(time.Duration, bool) {})
		}
		if err := eng.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		if d := app.Dispositions(); d.OK != n {
			t.Fatalf("ratio %v: dispositions %+v", tc.ratio, d)
		}
		if db := app.NodeVisits()["db"]; db.Started != tc.dbVisits {
			t.Fatalf("ratio %v: db saw %d visits, want %d", tc.ratio, db.Started, tc.dbVisits)
		}
		hits, misses, err := app.CacheStats("mc")
		if err != nil {
			t.Fatal(err)
		}
		if hits+misses != n {
			t.Fatalf("ratio %v: %d lookups recorded, want %d", tc.ratio, hits+misses, n)
		}
		requireClean(t, app, chk)
	}
}

// TestLRUCache pins the recency semantics of the cache node's LRU.
func TestLRUCache(t *testing.T) {
	t.Parallel()
	c := newLRUCache(2)
	if c.Access(1) {
		t.Fatal("cold cache hit")
	}
	if !c.Access(1) {
		t.Fatal("resident key missed")
	}
	c.Access(2)      // {2, 1}
	c.Access(1)      // touch 1 -> {1, 2}
	if c.Access(3) { // evicts 2 -> {3, 1}
		t.Fatal("insert of new key reported a hit")
	}
	if c.Access(2) {
		t.Fatal("evicted key still resident")
	}
	// Inserting 2 evicted 1 (LRU after the 3 insert): {2, 3}.
	if !c.Access(3) {
		t.Fatal("recently used key evicted out of order")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want capacity 2", c.Len())
	}
}

// TestWalkSteadyStateAllocs pins the walk's allocation contract: once the
// free lists of visit and request records and the servers' and pools'
// queues have grown to the working set, injecting a request and draining
// it allocates nothing — on the calibrated chain and on the benchmark
// diamond's parallel fan-out, serial call and pooled DB.
func TestWalkSteadyStateAllocs(t *testing.T) {
	chain, err := LoadSpec("../../topologies/chain3.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{chain, benchDiamond()} {
		t.Run(spec.Name, func(t *testing.T) {
			eng := sim.NewEngine()
			app, err := New(eng, rng.New(1).Split("app"), Config{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			done := 0
			cb := func(time.Duration, bool) { done++ }
			horizon := time.Duration(0)
			drain := func() {
				horizon += time.Second
				if err := eng.Run(horizon); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				app.Inject(cb)
			}
			drain()
			allocs := testing.AllocsPerRun(200, func() {
				app.Inject(cb)
				drain()
			})
			if done != 64+201 {
				t.Fatalf("completed %d of %d requests", done, 64+201)
			}
			if allocs > 0 {
				t.Fatalf("%v allocations per injected and drained request, want 0", allocs)
			}
		})
	}
}

// TestParallelJoinReportsLowestIndexFailure pins the join's verdict when
// several branches fail: the lowest-index failed branch's disposition,
// whatever order the branches finish in. Two branches fan out to the two
// replicas of b (round-robin: branch 0 on b-1, branch 1 on b-2). One
// replica is saturated, so its branch is rejected at once; the other is
// so degraded that its branch's burst is cut off at the deadline, a
// timeout that lands later. The join adopts branch 0's disposition both
// when branch 0 fails first and when it fails last.
func TestParallelJoinReportsLowestIndexFailure(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name      string
		saturated int // replica of b whose thread and queue slot are taken
		want      metrics.Disposition
	}{
		{"branch 0 fails first", 0, metrics.DispositionRejected},
		{"branch 0 fails last", 1, metrics.DispositionTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{
				Name:  "join-order",
				Entry: "a",
				Nodes: []NodeSpec{
					{Name: "a", Model: testModel(), Threads: 4},
					{Name: "b", Model: testModel(), Threads: 1, Replicas: 2},
				},
				Edges: []EdgeSpec{{From: "a", To: "b", Kind: EdgeParallel, Visits: 2}},
			}
			res := resilience.Config{RequestTimeout: 100 * time.Millisecond, MaxQueue: 1}
			eng, app, chk := newTestApp(t, spec, res)
			members := app.Members("b")
			full, slow := members[tc.saturated].Server(), members[1-tc.saturated].Server()
			slow.SetDegradeFactor(1e6)
			hold := func(sess *server.Session) {
				sess.Exec(func() { eng.Schedule(time.Second, sess.Release) })
			}
			full.Acquire(hold) // takes the thread
			full.Acquire(hold) // takes the one queue slot

			var got []bool
			app.Inject(func(_ time.Duration, ok bool) { got = append(got, ok) })
			if err := eng.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] {
				t.Fatalf("request outcomes %v, want one failure", got)
			}
			var want metrics.DispositionCounts
			want.Observe(tc.want)
			if d := app.Dispositions(); d != want {
				t.Fatalf("dispositions %+v, want exactly one %v", d, tc.want)
			}
			b := app.NodeVisits()["b"].Dispositions
			if b.Rejected != 1 || b.TimedOut != 1 {
				t.Fatalf("node b ledger %+v, want one Rejected and one Timeout branch", b)
			}
			requireClean(t, app, chk)
		})
	}
}

package graph

import (
	"errors"
	"strings"
	"testing"

	"dcm/internal/model"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

func testModel() model.Params {
	return model.Params{S0: 1e-3, Alpha: 1e-5, Beta: 1e-7, Gamma: 1}
}

// minimalSpec is a valid two-node serial topology tests mutate.
func minimalSpec() Spec {
	return Spec{
		Name:  "mini",
		Entry: "a",
		Nodes: []NodeSpec{
			{Name: "a", Model: testModel(), Threads: 4},
			{Name: "b", Model: testModel(), Threads: 2},
		},
		Edges: []EdgeSpec{{From: "a", To: "b", Visits: 1}},
	}
}

func TestSpecValidateAcceptsTopologies(t *testing.T) {
	t.Parallel()
	diamond := Spec{
		Name:  "diamond",
		Entry: "e",
		Nodes: []NodeSpec{
			{Name: "e", Model: testModel(), Threads: 4},
			{Name: "l", Model: testModel(), Threads: 2},
			{Name: "r", Model: testModel(), Threads: 2},
			{Name: "s", Model: testModel(), Threads: 2},
		},
		Edges: []EdgeSpec{
			{From: "e", To: "l", Visits: 1},
			{From: "e", To: "r", Kind: EdgeParallel, Visits: 2},
			{From: "l", To: "s", Visits: 1, PoolSize: 2},
			{From: "r", To: "s", Visits: 1},
		},
	}
	for _, s := range []Spec{minimalSpec(), diamond} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestSpecValidateErrorClasses pins each structural failure to its
// sentinel error: topology loaders branch on these with errors.Is.
func TestSpecValidateErrorClasses(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   error
	}{
		{"no-nodes", func(s *Spec) { s.Nodes = nil }, ErrBadSpec},
		{"unnamed-node", func(s *Spec) { s.Nodes[1].Name = "" }, ErrBadSpec},
		{"duplicate-node", func(s *Spec) { s.Nodes[1].Name = "a" }, ErrBadSpec},
		{"zero-threads", func(s *Spec) { s.Nodes[1].Threads = 0 }, ErrBadSpec},
		{"negative-replicas", func(s *Spec) { s.Nodes[0].Replicas = -1 }, ErrBadSpec},
		{"bad-kind", func(s *Spec) { s.Nodes[1].Kind = "proxy" }, ErrBadSpec},
		{"bad-distribution", func(s *Spec) { s.Nodes[1].Distribution = "pareto" }, ErrBadSpec},
		{"bad-model", func(s *Spec) { s.Nodes[0].Model = model.Params{} }, ErrBadSpec},
		{"cache-lru-half-configured", func(s *Spec) {
			s.Nodes[1].Kind = KindCache
			s.Nodes[1].CacheSize = 10
		}, ErrBadSpec},
		{"cache-bad-hit-ratio", func(s *Spec) {
			s.Nodes[1].Kind = KindCache
			s.Nodes[1].HitRatio = 1.5
		}, ErrBadSpec},
		{"no-entry", func(s *Spec) { s.Entry = "" }, ErrBadSpec},
		{"unknown-entry", func(s *Spec) { s.Entry = "zz" }, ErrBadSpec},
		{"entry-with-in-edge", func(s *Spec) {
			s.Edges = append(s.Edges, EdgeSpec{From: "b", To: "a", Visits: 1})
		}, ErrBadSpec},
		{"dangling-from", func(s *Spec) { s.Edges[0].From = "zz" }, ErrDanglingEdge},
		{"dangling-to", func(s *Spec) { s.Edges[0].To = "zz" }, ErrDanglingEdge},
		{"self-loop", func(s *Spec) { s.Edges[0].To = "a" }, ErrCycle},
		{"duplicate-edge", func(s *Spec) {
			s.Edges = append(s.Edges, EdgeSpec{From: "a", To: "b", Visits: 2})
		}, ErrBadSpec},
		{"bad-edge-kind", func(s *Spec) { s.Edges[0].Kind = "stream" }, ErrBadSpec},
		{"async-with-pool", func(s *Spec) {
			s.Edges[0].Kind = EdgeAsync
			s.Edges[0].PoolSize = 4
		}, ErrBadSpec},
		{"negative-visits", func(s *Spec) { s.Edges[0].Visits = -1 }, ErrBadSpec},
		{"visits-over-ceiling", func(s *Spec) { s.Edges[0].Visits = MaxEdgeVisits + 1 }, ErrBadSpec},
		{"negative-pool", func(s *Spec) { s.Edges[0].PoolSize = -2 }, ErrBadSpec},
		{"cycle", func(s *Spec) {
			s.Nodes = append(s.Nodes, NodeSpec{Name: "c", Model: testModel(), Threads: 1})
			s.Edges = append(s.Edges,
				EdgeSpec{From: "b", To: "c", Visits: 1},
				EdgeSpec{From: "c", To: "b", Visits: 1})
		}, ErrCycle},
		{"unreachable", func(s *Spec) {
			s.Nodes = append(s.Nodes,
				NodeSpec{Name: "c", Model: testModel(), Threads: 1},
				NodeSpec{Name: "d", Model: testModel(), Threads: 1})
			s.Edges = append(s.Edges, EdgeSpec{From: "c", To: "d", Visits: 1})
		}, ErrUnreachable},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := minimalSpec()
			tc.mutate(&s)
			err := s.Validate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
			if err == nil || !strings.Contains(err.Error(), "graph:") {
				t.Fatalf("error %v lacks package prefix", err)
			}
		})
	}
}

// TestParseSpecStrictness pins the strict-JSON loading contract: unknown
// fields and trailing data are rejected, good documents round through.
func TestParseSpecStrictness(t *testing.T) {
	t.Parallel()
	good := `{
	  "name": "ok", "entry": "a",
	  "nodes": [
	    {"name": "a", "model": {"s0": 0.001, "gamma": 1}, "threads": 2},
	    {"name": "b", "model": {"s0": 0.001, "gamma": 1}, "threads": 2}
	  ],
	  "edges": [{"from": "a", "to": "b", "visits": 1}]
	}`
	if _, err := ParseSpec([]byte(good)); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	bad := []struct {
		name string
		doc  string
	}{
		{"unknown-top-level", strings.Replace(good, `"name": "ok"`, `"name": "ok", "bogus": 1`, 1)},
		{"unknown-node-field", strings.Replace(good, `"threads": 2},`, `"threads": 2, "paekRate": 3},`, 1)},
		{"unknown-edge-field", strings.Replace(good, `"visits": 1}`, `"visits": 1, "wieght": 2}`, 1)},
		{"trailing-data", good + `{"second": "doc"}`},
		{"not-json", "entry: a"},
	}
	for _, tc := range bad {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if _, err := ParseSpec([]byte(tc.doc)); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseSpec accepted %s (err %v)", tc.name, err)
			}
		})
	}
}

// TestLoadSpecFiles loads the checked-in topologies through the file
// loader, and pins the missing-file failure to ErrBadSpec.
func TestLoadSpecFiles(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"chain3", "fanout5", "cache3", "diamond4"} {
		s, err := LoadSpec("../../topologies/" + name + ".json")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("%s.json declares name %q", name, s.Name)
		}
	}
	if _, err := LoadSpec("../../topologies/nope.json"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("missing file error %v, want ErrBadSpec", err)
	}
}

// TestHostileVisitsRejected loads a two-node spec whose parallel edge asks
// for 10⁹ visits per request. Before the visits ceiling it passed
// validation and a single request stalled the run; it must now fail at
// load time with the pinned error.
func TestHostileVisitsRejected(t *testing.T) {
	t.Parallel()
	const path = "testdata/hostile-visits.json"
	_, err := LoadSpec(path)
	const want = "graph: invalid topology: edge a->b visits 1000000000 outside [0, 100] (in " + path + ")"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
	s := minimalSpec()
	s.Edges[0].Visits = MaxEdgeVisits
	if err := s.Validate(); err != nil {
		t.Fatalf("visits at the ceiling rejected: %v", err)
	}
}

// TestProfileVisitsCeiling applies the same ceiling to per-profile visit
// overrides, in both a mix and a class.
func TestProfileVisitsCeiling(t *testing.T) {
	t.Parallel()
	over := map[string]int{"a->b": MaxEdgeVisits + 1}
	_, err := New(sim.NewEngine(), rng.New(1), Config{
		Spec: minimalSpec(),
		Mix:  []Profile{{Name: "p", Weight: 1, EdgeVisits: over}},
	})
	const wantMix = `graph: invalid profile mix: profile "p" edge a->b visits 101 outside [0, 100]`
	if err == nil || err.Error() != wantMix {
		t.Fatalf("mix err = %v, want %q", err, wantMix)
	}
	_, err = New(sim.NewEngine(), rng.New(1), Config{
		Spec:    minimalSpec(),
		Classes: []Class{{Name: "c", Profile: Profile{EdgeVisits: over}}},
	})
	if !errors.Is(err, ErrBadClass) {
		t.Fatalf("class err = %v, want ErrBadClass", err)
	}
}

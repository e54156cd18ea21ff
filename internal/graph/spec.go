// Package graph generalizes the hard-wired web→app→db chain of
// internal/ntier into a validated DAG of service nodes: each node carries
// its own thread pool, accept queue and Equation 5 service law, and nodes
// are connected by typed edges — serial call sequences, fan-out/fan-in
// parallel calls joined before the reply, and async fire-and-forget
// deliveries backed by internal/bus — with per-edge connection pools,
// per-backend circuit breakers, propagated deadlines and visit ratios.
// A cache node kind short-circuits its downstream visits on a hit, either
// with a fixed hit ratio or a simulated LRU over a key population.
//
// The paper's three-tier application is the special case of a 3-node
// linear graph (topologies/chain3.json); internal/ntier now builds exactly
// that graph and forwards to it, so every calibrated experiment exercises
// this engine.
package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"dcm/internal/model"
)

// Node kinds.
const (
	// KindService is an ordinary service node (the default).
	KindService = "service"
	// KindCache is a cache node: after its lookup burst, a hit serves the
	// reply locally and skips every out-edge; a miss descends normally.
	KindCache = "cache"
)

// Service-time distributions accepted by NodeSpec.Distribution.
const (
	// DistDeterministic uses the Equation 5 mean exactly (the default —
	// what the calibrated chain uses).
	DistDeterministic = "deterministic"
	// DistExponential draws each burst exponentially around the Equation 5
	// mean, making a node's station product-form (BCMP) so exact MVA
	// applies — the conformance suite's oracle mode.
	DistExponential = "exponential"
)

// Edge kinds.
const (
	// EdgeSerial issues the edge's visits one at a time, the caller's
	// thread held across each call (the default).
	EdgeSerial = "serial"
	// EdgeParallel issues all visits concurrently and joins them before
	// the caller replies; the join's outcome is the lowest-index failed
	// branch's disposition (whatever order the branches finish in),
	// counted once.
	EdgeParallel = "parallel"
	// EdgeAsync publishes the visits to an internal/bus topic and returns
	// immediately; the deliveries run as independent background jobs whose
	// outcomes land in the async ledger, not the caller's disposition.
	EdgeAsync = "async"
)

// Spec validation errors. LoadSpec and Validate wrap every failure in
// ErrBadSpec; the structural classes the topology loader distinguishes —
// cycles, unreachable nodes, dangling edges — are additionally wrapped in
// their own pinned errors so callers can assert the failure class.
var (
	ErrBadSpec      = errors.New("graph: invalid topology")
	ErrCycle        = errors.New("graph: topology has a cycle")
	ErrUnreachable  = errors.New("graph: node unreachable from entry")
	ErrDanglingEdge = errors.New("graph: edge references unknown node")
)

// NodeSpec describes one service node of a topology.
type NodeSpec struct {
	// Name identifies the node ("web", "catalog", ...).
	Name string `json:"name"`
	// Kind is the node kind: "service" (default) or "cache".
	Kind string `json:"kind,omitempty"`
	// Model is the node's Equation 5 burst law.
	Model model.Params `json:"model"`
	// Threads is the per-replica thread pool size (the node's soft
	// resource).
	Threads int `json:"threads"`
	// Replicas is the initial replica count (default 1).
	Replicas int `json:"replicas,omitempty"`
	// ThrashKnee, ThrashCoef and ThrashCap give the node the
	// super-quadratic collapse past the knee (see server.Config).
	ThrashKnee int     `json:"thrashKnee,omitempty"`
	ThrashCoef float64 `json:"thrashCoef,omitempty"`
	ThrashCap  float64 `json:"thrashCap,omitempty"`
	// BetaOnConfigured applies the crosstalk term to the configured
	// upstream concurrency (pooled in-edge capacity) instead of the
	// instantaneous concurrency, as the paper's MySQL tier does.
	BetaOnConfigured bool `json:"betaOnConfigured,omitempty"`
	// Distribution selects the burst-duration distribution:
	// "deterministic" (default) or "exponential".
	Distribution string `json:"distribution,omitempty"`
	// HitRatio is the cache node's hit probability in [0, 1], used when no
	// LRU is configured (cache kind only).
	HitRatio float64 `json:"hitRatio,omitempty"`
	// CacheSize and KeySpace configure a simulated LRU instead of the
	// fixed ratio: each lookup draws a key uniformly from KeySpace and
	// consults an LRU of CacheSize entries, so the hit ratio emerges from
	// the reference stream (cache kind only; both must be set together).
	CacheSize int `json:"cacheSize,omitempty"`
	KeySpace  int `json:"keySpace,omitempty"`
	// Controller arms a per-node DCM soft-resource controller in the graph
	// experiment: the node's thread pool is steered to its model optimum
	// N_b instead of staying at the static allocation.
	Controller bool `json:"controller,omitempty"`
}

// EdgeSpec describes one directed dependency between two nodes.
type EdgeSpec struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Kind is "serial" (default), "parallel" or "async".
	Kind string `json:"kind,omitempty"`
	// Visits is the visit ratio: calls issued over this edge per visit of
	// From. Zero is legal and disables the edge unless a profile overrides
	// it per class — topologies must state their visit ratios explicitly.
	Visits int `json:"visits,omitempty"`
	// PoolSize, when positive, gives every From replica a connection pool
	// of that size guarding its calls over this edge — the upstream bound
	// on To's request-processing concurrency, as the paper's Tomcat DB
	// connection pools bound MySQL.
	PoolSize int `json:"poolSize,omitempty"`
	// PoolName overrides the pool's name suffix; the default is
	// "<to>pool", so the chain's app-tier pools keep their historical
	// "app-1/dbpool" names.
	PoolName string `json:"poolName,omitempty"`
}

// Spec is the serializable topology description. JSON loading is strict:
// unknown fields are rejected, and Validate pins the structural failure
// classes (cycles, unreachable nodes, dangling edges).
type Spec struct {
	Name  string     `json:"name"`
	Entry string     `json:"entry"`
	Nodes []NodeSpec `json:"nodes"`
	Edges []EdgeSpec `json:"edges"`
}

// visitsOrDefault resolves the edge's default visit ratio.
func (e EdgeSpec) visitsOrDefault() int {
	if e.Visits < 0 {
		return 0
	}
	return e.Visits
}

// key returns the "from->to" identifier profiles use to address an edge.
func (e EdgeSpec) key() string { return e.From + "->" + e.To }

// poolSuffix resolves the connection-pool name suffix.
func (e EdgeSpec) poolSuffix() string {
	if e.PoolName != "" {
		return e.PoolName
	}
	return e.To + "pool"
}

// ParseSpec decodes a strict-JSON topology: unknown fields are rejected
// and the result is validated.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	// A topology is one JSON document; trailing garbage is an error, not
	// silently ignored.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Spec{}, fmt.Errorf("%w: trailing data after topology document", ErrBadSpec)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and parses a topology file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%v (in %s)", err, path)
	}
	return s, nil
}

// Validate checks the topology's structure: named, well-formed nodes and
// edges; a known entry node with no in-edges; no dangling edges, no
// cycles, and every node reachable from the entry.
func (s Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("%w: no nodes", ErrBadSpec)
	}
	byName := make(map[string]int, len(s.Nodes))
	for i, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("%w: node %d has no name", ErrBadSpec, i)
		}
		if _, dup := byName[n.Name]; dup {
			return fmt.Errorf("%w: duplicate node %q", ErrBadSpec, n.Name)
		}
		byName[n.Name] = i
		switch n.Kind {
		case "", KindService:
		case KindCache:
			lru := n.CacheSize > 0 || n.KeySpace > 0
			if lru && (n.CacheSize <= 0 || n.KeySpace <= 0) {
				return fmt.Errorf("%w: cache node %q needs cacheSize and keySpace together", ErrBadSpec, n.Name)
			}
			if !lru && (n.HitRatio < 0 || n.HitRatio > 1) {
				return fmt.Errorf("%w: cache node %q hit ratio %v outside [0, 1]", ErrBadSpec, n.Name, n.HitRatio)
			}
		default:
			return fmt.Errorf("%w: node %q has unknown kind %q", ErrBadSpec, n.Name, n.Kind)
		}
		if n.Threads < 1 {
			return fmt.Errorf("%w: node %q threads %d", ErrBadSpec, n.Name, n.Threads)
		}
		if n.Replicas < 0 {
			return fmt.Errorf("%w: node %q replicas %d", ErrBadSpec, n.Name, n.Replicas)
		}
		if err := n.Model.Validate(); err != nil {
			return fmt.Errorf("%w: node %q: %v", ErrBadSpec, n.Name, err)
		}
		switch n.Distribution {
		case "", DistDeterministic, DistExponential:
		default:
			return fmt.Errorf("%w: node %q has unknown distribution %q", ErrBadSpec, n.Name, n.Distribution)
		}
	}
	if s.Entry == "" {
		return fmt.Errorf("%w: no entry node", ErrBadSpec)
	}
	if _, ok := byName[s.Entry]; !ok {
		return fmt.Errorf("%w: entry node %q not declared", ErrBadSpec, s.Entry)
	}

	seenEdge := make(map[string]bool, len(s.Edges))
	adj := make([][]int, len(s.Nodes))
	indeg := make([]int, len(s.Nodes))
	for i, e := range s.Edges {
		from, okFrom := byName[e.From]
		to, okTo := byName[e.To]
		if !okFrom || !okTo {
			return fmt.Errorf("%w: edge %d (%s->%s)", ErrDanglingEdge, i, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("%w: edge %d is a self-loop on %q", ErrCycle, i, e.From)
		}
		if seenEdge[e.key()] {
			return fmt.Errorf("%w: duplicate edge %s", ErrBadSpec, e.key())
		}
		seenEdge[e.key()] = true
		switch e.Kind {
		case "", EdgeSerial, EdgeParallel:
		case EdgeAsync:
			if e.PoolSize > 0 {
				return fmt.Errorf("%w: async edge %s cannot carry a connection pool", ErrBadSpec, e.key())
			}
		default:
			return fmt.Errorf("%w: edge %s has unknown kind %q", ErrBadSpec, e.key(), e.Kind)
		}
		if e.Visits < 0 {
			return fmt.Errorf("%w: edge %s visits %d", ErrBadSpec, e.key(), e.Visits)
		}
		if e.PoolSize < 0 {
			return fmt.Errorf("%w: edge %s pool size %d", ErrBadSpec, e.key(), e.PoolSize)
		}
		adj[from] = append(adj[from], to)
		indeg[to]++
	}
	if indeg[byName[s.Entry]] > 0 {
		return fmt.Errorf("%w: entry node %q has in-edges", ErrBadSpec, s.Entry)
	}

	// Cycle check: Kahn's algorithm over the whole graph.
	queue := make([]int, 0, len(s.Nodes))
	deg := append([]int(nil), indeg...)
	for i := range s.Nodes {
		if deg[i] == 0 {
			queue = append(queue, i)
		}
	}
	processed := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		processed++
		for _, w := range adj[v] {
			if deg[w]--; deg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if processed != len(s.Nodes) {
		for i := range s.Nodes {
			if deg[i] > 0 {
				return fmt.Errorf("%w: node %q is on a cycle", ErrCycle, s.Nodes[i].Name)
			}
		}
	}

	// Reachability from the entry.
	reached := make([]bool, len(s.Nodes))
	stack := []int{byName[s.Entry]}
	reached[byName[s.Entry]] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !reached[w] {
				reached[w] = true
				stack = append(stack, w)
			}
		}
	}
	for i, r := range reached {
		if !r {
			return fmt.Errorf("%w: %q", ErrUnreachable, s.Nodes[i].Name)
		}
	}
	return nil
}

// ChainSpec builds the paper's 3-node web→app→db chain programmatically —
// the exact topology internal/ntier assembles. queries is the app→db
// visit ratio V_db and dbConnsPerApp each app replica's connection-pool
// size.
func ChainSpec(webModel, appModel, dbModel model.Params,
	webThreads, appThreads, dbConnsPerApp, dbMaxConns int,
	queries int,
	webReplicas, appReplicas, dbReplicas int,
	dbThrashKnee int, dbThrashCoef, dbThrashCap float64) Spec {
	return Spec{
		Name:  "chain3",
		Entry: "web",
		Nodes: []NodeSpec{
			{Name: "web", Model: webModel, Threads: webThreads, Replicas: webReplicas},
			{Name: "app", Model: appModel, Threads: appThreads, Replicas: appReplicas},
			{Name: "db", Model: dbModel, Threads: dbMaxConns, Replicas: dbReplicas,
				ThrashKnee: dbThrashKnee, ThrashCoef: dbThrashCoef, ThrashCap: dbThrashCap,
				BetaOnConfigured: true},
		},
		Edges: []EdgeSpec{
			{From: "web", To: "app", Visits: 1},
			{From: "app", To: "db", Visits: queries, PoolSize: dbConnsPerApp, PoolName: "dbpool"},
		},
	}
}

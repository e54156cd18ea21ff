package graph

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/metrics"
)

// Profile is one request class's demand shape over the graph: a demand
// multiplier per node (1.0 = the node's base S0) and a visit-ratio
// override per edge. Profiles appear in two roles: as a weighted Mix the
// application draws from per request (the servlet mix of §II-A), and as
// the demand shape of an injected traffic Class.
type Profile struct {
	// Name identifies the profile (e.g. "ViewStory").
	Name string `json:"name"`
	// Weight is the profile's relative share when used in a mix.
	Weight float64 `json:"weight,omitempty"`
	// NodeDemand scales each named node's base work (absent = 1.0).
	NodeDemand map[string]float64 `json:"nodeDemand,omitempty"`
	// EdgeVisits overrides the named edge's visit ratio, keyed "from->to"
	// (absent = the edge's configured default).
	EdgeVisits map[string]int `json:"edgeVisits,omitempty"`
}

// Class is one traffic class of a class-mixed workload: a named slice of
// the request stream with its own admission priority, goodput SLO and
// demand profile, injected by index through InjectClass.
type Class struct {
	// Name identifies the class (e.g. "premium").
	Name string `json:"name"`
	// Priority > 0 marks the class critical: never brownout- or
	// CoDel-shed. Bounded-queue rejection and deadlines still apply.
	Priority int `json:"priority,omitempty"`
	// SLO is the class's goodput threshold; zero falls back to the
	// resilience config's global SLA.
	SLO time.Duration `json:"slo,omitempty"`
	// Profile is the class's demand shape (Weight is ignored).
	Profile Profile `json:"profile"`
}

// Profile and class validation errors.
var (
	ErrBadProfile = errors.New("graph: invalid profile mix")
	ErrBadClass   = errors.New("graph: invalid request classes")
)

// resolvedProfile is a profile compiled against a topology: demand by
// node index, visits by edge index — no map lookups on the request path.
type resolvedProfile struct {
	name   string
	weight float64
	mix    int // index into App.profiles and App.profStats (mix profiles only)
	demand []float64
	visits []int
}

// resolveProfile compiles p against the app's topology, rejecting
// references to unknown nodes or edges.
func (a *App) resolveProfile(p Profile, wrap error) (resolvedProfile, error) {
	rp := resolvedProfile{
		name:   p.Name,
		weight: p.Weight,
		demand: make([]float64, len(a.nodes)),
		visits: make([]int, len(a.edges)),
	}
	for i, n := range a.nodes {
		rp.demand[i] = 1
		if d, ok := p.NodeDemand[n.spec.Name]; ok {
			if d <= 0 {
				return rp, fmt.Errorf("%w: profile %q node %q demand %v", wrap, p.Name, n.spec.Name, d)
			}
			rp.demand[i] = d
		}
	}
	for name := range p.NodeDemand {
		if _, ok := a.nodeByName[name]; !ok {
			return rp, fmt.Errorf("%w: profile %q references unknown node %q", wrap, p.Name, name)
		}
	}
	for i, e := range a.edges {
		rp.visits[i] = e.spec.visitsOrDefault()
		if v, ok := p.EdgeVisits[e.spec.key()]; ok {
			if v < 0 || v > MaxEdgeVisits {
				return rp, fmt.Errorf("%w: profile %q edge %s visits %d outside [0, %d]", wrap, p.Name, e.spec.key(), v, MaxEdgeVisits)
			}
			rp.visits[i] = v
		}
	}
	for key := range p.EdgeVisits {
		if _, ok := a.edgeByKey[key]; !ok {
			return rp, fmt.Errorf("%w: profile %q references unknown edge %q", wrap, p.Name, key)
		}
	}
	return rp, nil
}

// resolveMix compiles the weighted mix, returning the total weight.
func (a *App) resolveMix(mix []Profile) (float64, error) {
	seen := make(map[string]bool, len(mix))
	total := 0.0
	for i, p := range mix {
		if p.Name == "" {
			return 0, fmt.Errorf("%w: profile %d has no name", ErrBadProfile, i)
		}
		if seen[p.Name] {
			return 0, fmt.Errorf("%w: duplicate profile %q", ErrBadProfile, p.Name)
		}
		seen[p.Name] = true
		if p.Weight <= 0 {
			return 0, fmt.Errorf("%w: profile %q weight %v", ErrBadProfile, p.Name, p.Weight)
		}
		rp, err := a.resolveProfile(p, ErrBadProfile)
		if err != nil {
			return 0, err
		}
		rp.mix = len(a.profiles)
		a.profiles = append(a.profiles, rp)
		a.profStats = append(a.profStats, profileAccum{})
		total += p.Weight
	}
	return total, nil
}

// resolveClasses compiles the traffic classes.
func (a *App) resolveClasses(classes []Class) error {
	seen := make(map[string]bool, len(classes))
	names := make([]string, len(classes))
	for i, c := range classes {
		if c.Name == "" {
			return fmt.Errorf("%w: class %d has no name", ErrBadClass, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: duplicate class %q", ErrBadClass, c.Name)
		}
		seen[c.Name] = true
		if c.Priority < 0 {
			return fmt.Errorf("%w: class %q priority %d", ErrBadClass, c.Name, c.Priority)
		}
		if c.SLO < 0 {
			return fmt.Errorf("%w: class %q slo %v", ErrBadClass, c.Name, c.SLO)
		}
		p := c.Profile
		p.Name = c.Name
		rp, err := a.resolveProfile(p, ErrBadClass)
		if err != nil {
			return err
		}
		a.classProfiles = append(a.classProfiles, rp)
		names[i] = c.Name
	}
	a.classes = make([]classState, len(classes))
	a.classDisp = metrics.NewClassDispositions(names)
	return nil
}

// pickProfile draws a mix profile by weight: one Float64 against the
// cumulative weights, exactly the draw the chain's servlet mix has always
// made.
func (a *App) pickProfile() *resolvedProfile {
	u := a.rnd.Float64() * a.profWeight
	acc := 0.0
	for i := range a.profiles {
		acc += a.profiles[i].weight
		if u < acc {
			return &a.profiles[i]
		}
	}
	return &a.profiles[len(a.profiles)-1]
}

// ProfileStat summarizes one mix profile's traffic.
type ProfileStat struct {
	Completions uint64  `json:"completions"`
	Errors      uint64  `json:"errors"`
	MeanRTms    float64 `json:"meanRTms"`
}

// profileAccum is the mutable per-profile accumulator.
type profileAccum struct {
	completions metrics.Counter
	errored     metrics.Counter
	rtSum       float64
}

// ProfileStats returns cumulative per-profile statistics (empty when no
// mix is configured).
func (a *App) ProfileStats() map[string]ProfileStat {
	out := make(map[string]ProfileStat, len(a.profStats))
	for i := range a.profStats {
		acc := &a.profStats[i]
		st := ProfileStat{
			Completions: acc.completions.Total(),
			Errors:      acc.errored.Total(),
		}
		if st.Completions > 0 {
			st.MeanRTms = acc.rtSum / float64(st.Completions) * 1000
		}
		out[a.profiles[i].name] = st
	}
	return out
}

// classState is the mutable per-class accumulator.
type classState struct {
	injected    uint64
	inFlight    int
	completions uint64
	errored     uint64
	good        uint64
	rtSum       float64
	// bshed counts the class's brownout front-door sheds (a subset of the
	// class's Shed dispositions).
	bshed uint64
}

// ClassStat summarizes one traffic class's lifetime traffic.
type ClassStat struct {
	Name     string `json:"name"`
	Priority int    `json:"priority"`
	// Injected counts arrivals; InFlight is the instantaneous population.
	Injected uint64 `json:"injected"`
	InFlight int    `json:"inFlight"`
	// Completions/Errors partition finished requests; Good is the subset
	// of completions within the class SLO.
	Completions uint64  `json:"completions"`
	Errors      uint64  `json:"errors"`
	Good        uint64  `json:"good"`
	MeanRTms    float64 `json:"meanRTms"`
	// Dispositions is the class's full outcome taxonomy.
	Dispositions metrics.DispositionCounts `json:"dispositions"`
	// BrownoutShed is the subset of Dispositions.Shed dropped at the
	// front door by the degrade controller (0 and absent without it).
	BrownoutShed uint64 `json:"brownoutShed,omitempty"`
}

// ClassStats returns cumulative per-class statistics in class order
// (empty when no classes are configured).
func (a *App) ClassStats() []ClassStat {
	out := make([]ClassStat, len(a.cfg.Classes))
	for i := range a.cfg.Classes {
		c := &a.cfg.Classes[i]
		st := &a.classes[i]
		out[i] = ClassStat{
			Name:         c.Name,
			Priority:     c.Priority,
			Injected:     st.injected,
			InFlight:     st.inFlight,
			Completions:  st.completions,
			Errors:       st.errored,
			Good:         st.good,
			Dispositions: a.classDisp.Counts(i),
			BrownoutShed: st.bshed,
		}
		if st.completions > 0 {
			out[i].MeanRTms = st.rtSum / float64(st.completions) * 1000
		}
	}
	return out
}

// ClassDispositions returns the per-class disposition tally (nil when no
// classes are configured).
func (a *App) ClassDispositions() *metrics.ClassDispositions { return a.classDisp }

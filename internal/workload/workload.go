// Package workload implements the paper's three workload generators
// (§II-A):
//
//   - ClosedLoop with zero think time — the Jmeter setup used for model
//     training, where the request-processing concurrency equals the number
//     of users;
//   - ClosedLoop with exponential think time (mean 3 s) — the original
//     RUBBoS client emulator used for model validation;
//   - TraceDriven — the revised RUBBoS emulator that varies the number of
//     concurrent users over time according to a trace file, used for the
//     bursty-workload evaluation (§V-B);
//
// plus an open-loop Poisson generator for ablations.
package workload

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// delayFromSeconds converts a sampled delay in seconds into an engine
// delay. The naive time.Duration(sec * float64(time.Second)) conversion
// truncates toward zero, so every draw schedules up to a nanosecond early
// and a sub-nanosecond draw schedules at zero delay — turning a positive
// think time into an immediate re-arrival. Round half-up instead and clamp
// positive draws to one engine tick (1 ns). Non-positive samples stay
// zero: that is the deliberate degenerate mode (Jmeter zero think time).
func delayFromSeconds(sec float64) time.Duration {
	if sec <= 0 {
		return 0
	}
	d := time.Duration(math.Round(sec * float64(time.Second)))
	if d < 1 {
		d = 1
	}
	return d
}

// expDelay draws an exponential delay with the given mean. A non-positive
// mean is the zero-delay degenerate mode and consumes no randomness (the
// draw-parity contract byte-identical runs rely on).
func expDelay(rnd *rng.Rand, mean time.Duration) time.Duration {
	return delayFromSeconds(rnd.Exp(mean.Seconds()))
}

// Target is anything that can process a request (normally *ntier.App).
type Target interface {
	Inject(done func(rt time.Duration, ok bool))
}

// ErrBadWorkload is returned for invalid generator configurations.
var ErrBadWorkload = errors.New("workload: invalid config")

// ClosedLoopConfig parameterizes a closed-loop generator.
type ClosedLoopConfig struct {
	// Users is the initial number of emulated users.
	Users int
	// ThinkTime is the mean of the exponential think time between a
	// response and the user's next request. Zero emulates Jmeter's
	// zero-think-time mode.
	ThinkTime time.Duration
	// Stagger spreads each new user's first request uniformly over this
	// window, avoiding a synchronized thundering herd. Defaults to
	// max(ThinkTime, 1s).
	Stagger time.Duration
}

// ClosedLoop emulates a population of users, each cycling through
// request → response → think. The population can be changed at runtime,
// which is how TraceDriven applies a trace.
type ClosedLoop struct {
	eng    *sim.Engine
	rnd    *rng.Rand
	target Target
	cfg    ClosedLoopConfig

	want    int // desired population
	live    int // users currently cycling
	started bool
	stopped bool

	retrier *resilience.Retrier

	// cycleFn and firstDone are userCycle and the first attempt's
	// completion, built once so the steady cycle allocates nothing.
	cycleFn   func()
	firstDone func(rt time.Duration, ok bool)

	// Class-mix state (nil/zero without classes — the class-free cycle is
	// byte-identical to the original generator).
	classes  []Class
	picker   *classPicker
	ctarget  ClassTarget
	think    Sampler // think-law override (nil = exponential ThinkTime)
	sessions uint64  // next session id

	issued    metrics.Counter
	completed metrics.Counter
	errored   metrics.Counter
	retries   metrics.Counter
	rts       metrics.MeanAccumulator
}

// NewClosedLoop returns an unstarted closed-loop generator.
func NewClosedLoop(eng *sim.Engine, rnd *rng.Rand, target Target, cfg ClosedLoopConfig) (*ClosedLoop, error) {
	if eng == nil || rnd == nil || target == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrBadWorkload)
	}
	if cfg.Users < 0 || cfg.ThinkTime < 0 || cfg.Stagger < 0 {
		return nil, fmt.Errorf("%w: negative users/think/stagger", ErrBadWorkload)
	}
	if cfg.Stagger == 0 {
		cfg.Stagger = cfg.ThinkTime
		if cfg.Stagger < time.Second {
			cfg.Stagger = time.Second
		}
	}
	c := &ClosedLoop{eng: eng, rnd: rnd, target: target, cfg: cfg, want: cfg.Users}
	c.cycleFn = c.userCycle
	c.firstDone = func(rt time.Duration, ok bool) { c.attemptDone(1, rt, ok) }
	return c, nil
}

// SetRetrier attaches a client-side retrier: a user whose request fails
// retries it after the retrier's jittered backoff, up to the policy's
// attempt cap and budget, before giving up and thinking. Each retry is
// re-issued through the target like any request (it is a new HTTP request
// from the server's point of view). nil (the default) disables retries
// and leaves the cycle byte-identical to the retry-free generator.
func (c *ClosedLoop) SetRetrier(r *resilience.Retrier) { c.retrier = r }

// Retrier returns the attached retrier (nil when retries are off).
func (c *ClosedLoop) Retrier() *resilience.Retrier { return c.retrier }

// SetThinkSampler overrides the exponential think-time law with an
// arbitrary sampler (heavy-tailed think times). nil (the default) keeps
// the exponential ThinkTime law. Must be called before Start.
func (c *ClosedLoop) SetThinkSampler(s Sampler) { c.think = s }

// SetClasses installs a traffic-class mix: each spawned user draws a class
// by weight and keeps it (and a stable session id, for load-balancer
// affinity) for life. The target must implement ClassTarget. Must be
// called before Start.
func (c *ClosedLoop) SetClasses(classes []Class) error {
	ct, ok := c.target.(ClassTarget)
	if !ok {
		return fmt.Errorf("%w: target does not accept classes", ErrBadWorkload)
	}
	picker, err := newClassPicker(classes)
	if err != nil {
		return err
	}
	c.classes = classes
	c.picker = picker
	c.ctarget = ct
	return nil
}

// Classes returns the configured class mix (nil without classes).
func (c *ClosedLoop) Classes() []Class { return c.classes }

// Start launches the initial user population. Start is idempotent.
func (c *ClosedLoop) Start() {
	if c.started {
		return
	}
	// A class mix with critical classes splits the retry budget by the
	// mix's weight shares, so a best-effort retry storm can at worst
	// drain its own share (see resilience.Retrier.EnableClassAccounting).
	if c.picker != nil && c.retrier != nil && !c.retrier.ClassAware() {
		if share := criticalShare(c.classes); share > 0 {
			c.retrier.EnableClassAccounting(share)
		}
	}
	c.started = true
	n := c.want
	c.want = 0
	c.SetUsers(n)
}

// criticalShare is the critical (Priority > 0) classes' weight share of
// the mix — the fraction of the retry budget reserved for them.
func criticalShare(classes []Class) float64 {
	var crit, total float64
	for _, c := range classes {
		total += c.Weight
		if c.Priority > 0 {
			crit += c.Weight
		}
	}
	if total <= 0 {
		return 0
	}
	return crit / total
}

// Stop retires all users; in-flight requests complete but no new requests
// are issued.
func (c *ClosedLoop) Stop() {
	c.stopped = true
	c.want = 0
}

// Users returns the desired user population.
func (c *ClosedLoop) Users() int { return c.want }

// Live returns the number of users still cycling (lags Users after a
// downward adjustment until users finish their current cycle).
func (c *ClosedLoop) Live() int { return c.live }

// SetUsers adjusts the population at runtime. Growth spawns users whose
// first requests are staggered; shrinkage retires users as they complete
// their current cycle, like real users leaving after their page loads.
func (c *ClosedLoop) SetUsers(n int) {
	if n < 0 {
		n = 0
	}
	if c.stopped {
		return
	}
	c.want = n
	if !c.started {
		return
	}
	for c.live < c.want {
		c.live++
		delay := time.Duration(c.rnd.Uniform(0, float64(c.cfg.Stagger)))
		if c.picker == nil {
			c.eng.Schedule(delay, c.cycleFn)
			continue
		}
		// Class mode: the user draws a class and a session id at spawn and
		// keeps both for life — a premium user stays premium, and the
		// session key pins their requests to one backend.
		cls := c.picker.pick(c.rnd)
		c.sessions++
		session := c.sessions
		c.eng.Schedule(delay, func() { c.classCycle(cls, session) })
	}
}

// userCycle is one user's request loop. The user retires whenever the live
// population exceeds the desired one.
func (c *ClosedLoop) userCycle() {
	if c.stopped || c.live > c.want {
		c.live--
		return
	}
	c.startRequest(1)
}

// startRequest issues one attempt of a user's request (attempt 1 is the
// original). A failed attempt retries after backoff while the retrier
// allows; the user thinks and cycles once the request succeeds or is
// abandoned.
func (c *ClosedLoop) startRequest(attempt int) {
	c.issued.Inc(1)
	if attempt == 1 {
		c.target.Inject(c.firstDone)
		return
	}
	c.target.Inject(func(rt time.Duration, ok bool) { c.attemptDone(attempt, rt, ok) })
}

// attemptDone handles one finished attempt of a user's request: record a
// success, retry a failure after backoff while the retrier allows, and
// otherwise think and cycle.
func (c *ClosedLoop) attemptDone(attempt int, rt time.Duration, ok bool) {
	if ok {
		c.completed.Inc(1)
		c.rts.Observe(rt.Seconds())
		if c.retrier != nil {
			c.retrier.OnSuccess()
		}
	} else if c.retrier != nil && c.retrier.Allow(attempt) {
		c.retries.Inc(1)
		c.eng.Schedule(c.retrier.Backoff(attempt), func() {
			// The user may have been retired (or the run stopped) while
			// backing off.
			if c.stopped || c.live > c.want {
				c.live--
				return
			}
			c.startRequest(attempt + 1)
		})
		return
	} else {
		c.errored.Inc(1)
	}
	think := c.thinkDelay(-1)
	c.eng.Schedule(think, c.cycleFn)
}

// thinkDelay draws one think time: the class law if the class has one,
// else the generator-wide sampler override, else the exponential
// ThinkTime default.
func (c *ClosedLoop) thinkDelay(cls int) time.Duration {
	if cls >= 0 && cls < len(c.classes) && c.classes[cls].Think != nil {
		return c.classes[cls].Think(c.rnd)
	}
	if c.think != nil {
		return c.think(c.rnd)
	}
	return expDelay(c.rnd, c.cfg.ThinkTime)
}

// classCycle is one class-mode user's request loop (the class-mode twin of
// userCycle).
func (c *ClosedLoop) classCycle(cls int, session uint64) {
	if c.stopped || c.live > c.want {
		c.live--
		return
	}
	c.startClassRequest(cls, session, 1)
}

// startClassRequest issues one attempt of a class-mode user's request
// (the class-mode twin of startRequest). Retry-budget traffic is
// class-attributed: critical (Priority > 0) classes debit and refill
// their own share of a class-aware budget so neither class can starve
// the other's retries during a storm.
func (c *ClosedLoop) startClassRequest(cls int, session uint64, attempt int) {
	critical := cls >= 0 && cls < len(c.classes) && c.classes[cls].Priority > 0
	c.issued.Inc(1)
	c.ctarget.InjectClass(cls, session, func(rt time.Duration, ok bool) {
		if ok {
			c.completed.Inc(1)
			c.rts.Observe(rt.Seconds())
			if c.retrier != nil {
				c.retrier.OnSuccessClass(critical)
			}
		} else if c.retrier != nil && c.retrier.AllowClass(attempt, critical) {
			c.retries.Inc(1)
			c.eng.Schedule(c.retrier.Backoff(attempt), func() {
				if c.stopped || c.live > c.want {
					c.live--
					return
				}
				c.startClassRequest(cls, session, attempt+1)
			})
			return
		} else {
			c.errored.Inc(1)
		}
		think := c.thinkDelay(cls)
		c.eng.Schedule(think, func() { c.classCycle(cls, session) })
	})
}

// Stats is one interval of generator-side metrics.
type Stats struct {
	// Issued, Completed, Errors are counts in the interval.
	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Errors    uint64 `json:"errors"`
	// MeanRTSeconds is the client-observed mean response time.
	MeanRTSeconds float64 `json:"meanRTSeconds"`
	// Users is the desired population at sampling time.
	Users int `json:"users"`
	// Retries counts retry attempts issued in the interval (a subset of
	// Issued). Zero — and absent from JSON — without a retrier.
	Retries uint64 `json:"retries,omitempty"`
}

// TakeStats returns interval metrics and resets the interval.
func (c *ClosedLoop) TakeStats() Stats {
	mean, _ := c.rts.TakeMean()
	return Stats{
		Issued:        c.issued.TakeDelta(),
		Completed:     c.completed.TakeDelta(),
		Errors:        c.errored.TakeDelta(),
		MeanRTSeconds: mean,
		Users:         c.want,
		Retries:       c.retries.TakeDelta(),
	}
}

// TotalCompleted returns the lifetime number of completed requests.
func (c *ClosedLoop) TotalCompleted() uint64 { return c.completed.Total() }

// TotalRetries returns the lifetime number of retry attempts issued.
func (c *ClosedLoop) TotalRetries() uint64 { return c.retries.Total() }

// TraceDriven replays a user-population trace through a ClosedLoop — the
// revised RUBBoS client emulator of §II-A.
type TraceDriven struct {
	loop   *ClosedLoop
	trace  *trace.Trace
	eng    *sim.Engine
	stop   func()
	period time.Duration
}

// NewTraceDriven wraps a trace around a closed-loop generator. period is
// how often the population is re-synchronized to the trace (default 1 s).
func NewTraceDriven(eng *sim.Engine, rnd *rng.Rand, target Target, tr *trace.Trace, think time.Duration, period time.Duration) (*TraceDriven, error) {
	if tr == nil {
		return nil, fmt.Errorf("%w: nil trace", ErrBadWorkload)
	}
	if period <= 0 {
		period = time.Second
	}
	loop, err := NewClosedLoop(eng, rnd, target, ClosedLoopConfig{
		Users:     tr.UsersAt(0),
		ThinkTime: think,
	})
	if err != nil {
		return nil, err
	}
	return &TraceDriven{loop: loop, trace: tr, eng: eng, period: period}, nil
}

// Start launches the generator and begins following the trace.
func (t *TraceDriven) Start() {
	if t.stop != nil {
		return
	}
	t.loop.Start()
	t.stop = t.eng.Ticker(t.period, func() {
		t.loop.SetUsers(t.trace.UsersAt(t.eng.Now()))
	})
}

// Stop halts trace following and retires all users.
func (t *TraceDriven) Stop() {
	if t.stop != nil {
		t.stop()
	}
	t.loop.Stop()
}

// Loop exposes the underlying closed loop (for stats).
func (t *TraceDriven) Loop() *ClosedLoop { return t.loop }

// Trace returns the trace being replayed.
func (t *TraceDriven) Trace() *trace.Trace { return t.trace }

// OpenLoop issues requests in a Poisson stream at a configurable rate,
// independent of responses — unlike the paper's closed-loop clients it can
// overload the system without bound, which the ablation benchmarks use to
// probe behaviour past saturation.
type OpenLoop struct {
	eng       *sim.Engine
	rnd       *rng.Rand
	target    Target
	rate      float64 // requests per second
	stopped   bool
	issued    metrics.Counter
	completed metrics.Counter
	errored   metrics.Counter
	rts       metrics.MeanAccumulator
}

// NewOpenLoop returns an unstarted open-loop generator at rate requests/s.
func NewOpenLoop(eng *sim.Engine, rnd *rng.Rand, target Target, rate float64) (*OpenLoop, error) {
	if eng == nil || rnd == nil || target == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrBadWorkload)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("%w: rate %v", ErrBadWorkload, rate)
	}
	return &OpenLoop{eng: eng, rnd: rnd, target: target, rate: rate}, nil
}

// SetRate changes the arrival rate at runtime.
func (o *OpenLoop) SetRate(rate float64) {
	if rate > 0 {
		o.rate = rate
	}
}

// Start begins the Poisson arrival stream.
func (o *OpenLoop) Start() {
	if o.stopped {
		return
	}
	o.scheduleNext()
}

func (o *OpenLoop) scheduleNext() {
	gap := delayFromSeconds(o.rnd.Exp(1 / o.rate))
	o.eng.Schedule(gap, func() {
		if o.stopped {
			return
		}
		o.issued.Inc(1)
		o.target.Inject(func(rt time.Duration, ok bool) {
			if ok {
				o.completed.Inc(1)
				o.rts.Observe(rt.Seconds())
			} else {
				o.errored.Inc(1)
			}
		})
		o.scheduleNext()
	})
}

// Stop halts the arrival stream.
func (o *OpenLoop) Stop() { o.stopped = true }

// TakeStats returns interval metrics and resets the interval.
func (o *OpenLoop) TakeStats() Stats {
	mean, _ := o.rts.TakeMean()
	return Stats{
		Issued:        o.issued.TakeDelta(),
		Completed:     o.completed.TakeDelta(),
		Errors:        o.errored.TakeDelta(),
		MeanRTSeconds: mean,
	}
}

// TotalCompleted returns the lifetime number of completed requests.
func (o *OpenLoop) TotalCompleted() uint64 { return o.completed.Total() }

// Package server simulates one component server of an n-tier application —
// an Apache, Tomcat or MySQL instance — as a thread-pooled station on a
// discrete-event engine.
//
// The server's thread pool is the paper's central soft resource: at most
// PoolSize requests are processed concurrently; the rest wait in a FIFO
// queue. An admitted request holds its thread until released, including
// while it waits on downstream tiers (exactly how Apache worker threads and
// Tomcat threads behave). CPU bursts executed on a held thread follow the
// multi-threading service-time law of Equation 5,
//
//	S*(N) = S0 + α(N−1) + βN(N−1)
//
// evaluated at the server's current concurrency N, so both throughput
// collapse at high concurrency and under-utilization at low concurrency
// emerge from the simulation just as they do on the paper's testbed.
//
// The pool can be resized at runtime without disturbing in-flight requests;
// that is the APP-agent's actuation primitive (§IV-B).
package server

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// Config describes a simulated server.
type Config struct {
	// Name identifies the server (e.g. "app-1"); required.
	Name string
	// Model is the Equation 5 service-time law for one CPU burst.
	Model model.Params
	// PoolSize is the initial thread pool size; must be >= 1.
	PoolSize int
	// NoiseSigma, if positive, applies mean-one lognormal noise to every
	// CPU burst, modeling real service-time variability.
	NoiseSigma float64
	// ThrashKnee and ThrashCoef model the super-quadratic collapse real
	// servers exhibit far past their concurrency optimum (lock convoys,
	// buffer-pool thrashing): beyond ThrashKnee concurrent requests, each
	// burst gains ThrashCoef·(N−ThrashKnee)² seconds. Equation 5 is a
	// deliberately *graceful* contention model; the thrash term is what
	// makes the simulated MySQL reproduce the steep decline of Fig. 2(a)
	// and the scale-out trap of Fig. 2(b). Zero ThrashKnee disables it.
	// ThrashCap bounds the extra seconds per burst (0 means uncapped);
	// real servers' degradation flattens once every request misses cache.
	ThrashKnee int
	ThrashCoef float64
	ThrashCap  float64
	// Basis selects which concurrency N the Equation 5 law sees. The
	// default, BasisActive, counts every admitted (thread-holding)
	// request. BasisExecuting counts only requests currently in a CPU
	// burst — threads blocked on a downstream tier do not contend for the
	// CPU, which is how real SMT contention behaves and is essential for
	// tiers (like Tomcat) whose threads spend much of their life waiting
	// on the database.
	Basis ContentionBasis
	// Distribution selects the burst-duration distribution around the
	// Equation 5 mean: deterministic (default) or exponential. Exponential
	// service makes the station BCMP-compatible, which the MVA
	// cross-validation tests rely on; deterministic matches the paper's
	// CPU-bound browse-only workload better.
	Distribution ServiceDistribution
	// BetaOnConfigured, when true, charges Equation 5's crosstalk term β
	// on the server's *configured* concurrency (SetConfiguredConcurrency)
	// instead of the instantaneous one. This models MySQL: every open
	// connection is a mysqld thread that participates in lock-manager and
	// buffer coherency traffic whether or not it is executing a query, so
	// the coherency cost follows the allocation (the paper's #A_C × #A),
	// while the scheduling-contention α and the thrash term follow actual
	// load.
	BetaOnConfigured bool
	// MaxQueue bounds the admission queue: a request arriving when
	// MaxQueue requests are already waiting is rejected immediately
	// (its callback runs with a nil session and DispositionRejected).
	// Zero means unbounded — the historical behaviour.
	MaxQueue int
	// CoDelTarget and CoDelInterval enable the CoDel-style on-dequeue
	// shedder (see resilience.CoDel): requests whose queue delay exceeds
	// the target for a sustained interval are shed at dequeue time instead
	// of being granted a thread. Zero CoDelTarget disables shedding.
	CoDelTarget   time.Duration
	CoDelInterval time.Duration
}

// ServiceDistribution selects the burst-duration distribution.
type ServiceDistribution int

// Service distributions.
const (
	// DistDeterministic uses the Equation 5 mean exactly.
	DistDeterministic ServiceDistribution = iota
	// DistExponential draws exponentially with the Equation 5 mean.
	DistExponential
)

// ContentionBasis selects the concurrency measure for Equation 5.
type ContentionBasis int

// Contention bases.
const (
	// BasisActive charges contention for every admitted request.
	BasisActive ContentionBasis = iota
	// BasisExecuting charges contention only for requests in a CPU burst.
	BasisExecuting
)

// Errors returned by New.
var (
	ErrBadConfig = errors.New("server: invalid config")
)

// Server is a simulated component server. It must only be used from the
// simulation goroutine.
type Server struct {
	eng    *sim.Engine
	rnd    *rng.Rand
	name   string
	params model.Params

	poolSize  int
	active    int
	accepting bool
	dead      bool
	noise     float64
	queue     []slot // queue[queueHead:] is the FIFO; the popped prefix is zeroed
	queueHead int
	queueDead int // timed-out waiters still occupying queue slots
	maxQueue  int
	// queueGrace grandfathers requests already queued when SetMaxQueue
	// shrinks the cap below the live backlog: they were admitted legally,
	// so the invariant allows the old depth until the queue drains back
	// under the new cap. New arrivals are judged against maxQueue alone.
	queueGrace int
	codel      *resilience.CoDel

	thrashKnee int
	thrashCoef float64
	thrashCap  float64
	degrade    float64 // multiplier on the S0 work term; 1 = healthy
	basis      ContentionBasis
	executing  int
	betaOnConf bool
	configured int
	dist       ServiceDistribution

	cpu         metrics.BusyTracker
	concurrency metrics.TimeWeighted
	completions metrics.Counter
	execTimes   metrics.MeanAccumulator
	queueWaits  metrics.MeanAccumulator
	queuePeak   int
	timeouts    metrics.Counter
	rejections  metrics.Counter
	sheds       metrics.Counter

	queueDepth *metrics.Histogram
	svcTimes   *metrics.Histogram

	tracer *trace.RequestTracer
	tier   string

	// granted and released are lifetime thread grants/returns; together
	// with active they form the pool-accounting conservation law the
	// invariant checker asserts (granted = released + active).
	granted  uint64
	released uint64
	chk      *invariant.Checker
}

// Histogram bucket layouts shared by every server so per-tier merges are
// well defined: queue depths on a coarse exponential grid, burst durations
// from 0.1 ms to ~52 s.
var (
	queueDepthBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	svcTimeBounds    = metrics.ExpBuckets(1e-4, 2, 20)
)

// New constructs a server on the given engine. rnd must be a dedicated
// stream (use rng.Rand.Split).
func New(eng *sim.Engine, rnd *rng.Rand, cfg Config) (*Server, error) {
	if eng == nil || rnd == nil {
		return nil, fmt.Errorf("%w: nil engine or rng", ErrBadConfig)
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrBadConfig)
	}
	if cfg.PoolSize < 1 {
		return nil, fmt.Errorf("%w: pool size %d", ErrBadConfig, cfg.PoolSize)
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.ThrashKnee < 0 || cfg.ThrashCoef < 0 || cfg.ThrashCap < 0 {
		return nil, fmt.Errorf("%w: negative thrash parameters", ErrBadConfig)
	}
	if cfg.MaxQueue < 0 || cfg.CoDelTarget < 0 || cfg.CoDelInterval < 0 {
		return nil, fmt.Errorf("%w: negative admission-control parameters", ErrBadConfig)
	}
	return &Server{
		eng:        eng,
		rnd:        rnd,
		name:       cfg.Name,
		params:     cfg.Model,
		poolSize:   cfg.PoolSize,
		accepting:  true,
		noise:      cfg.NoiseSigma,
		thrashKnee: cfg.ThrashKnee,
		thrashCoef: cfg.ThrashCoef,
		thrashCap:  cfg.ThrashCap,
		degrade:    1,
		basis:      cfg.Basis,
		betaOnConf: cfg.BetaOnConfigured,
		dist:       cfg.Distribution,
		maxQueue:   cfg.MaxQueue,
		codel:      resilience.NewCoDel(cfg.CoDelTarget, cfg.CoDelInterval),
		queueDepth: metrics.NewHistogram(queueDepthBounds),
		svcTimes:   metrics.NewHistogram(svcTimeBounds),
	}, nil
}

// SetTracer attaches a request tracer (nil detaches) and the tier label
// recorded on this server's events. Tracing changes only what is recorded,
// never how requests are scheduled.
func (s *Server) SetTracer(tr *trace.RequestTracer, tier string) {
	s.tracer = tr
	s.tier = tier
}

// SetInvariantChecker attaches an invariant checker (nil detaches). Like
// tracing, checking is read-only: it never changes how requests are
// scheduled, so enabled and disabled runs are byte-identical.
func (s *Server) SetInvariantChecker(c *invariant.Checker) { s.chk = c }

// CheckInvariant sweeps the server's structural laws and returns the
// first breach found (nil when all hold): occupancy and queue accounting
// never negative, executing bursts bounded by held threads, lifetime
// grants = releases + active, the bounded queue's cap respected, and
// work conservation (no request waiting while a thread is free).
func (s *Server) CheckInvariant() error {
	if s.active < 0 {
		return fmt.Errorf("server %s: active %d negative", s.name, s.active)
	}
	if s.executing < 0 || s.executing > s.active {
		return fmt.Errorf("server %s: executing %d outside [0, active %d]", s.name, s.executing, s.active)
	}
	if s.poolSize < 1 {
		return fmt.Errorf("server %s: pool size %d below 1", s.name, s.poolSize)
	}
	if n := len(s.queue) - s.queueHead; s.queueDead < 0 || s.queueDead > n {
		return fmt.Errorf("server %s: queueDead %d outside [0, %d]", s.name, s.queueDead, n)
	}
	if s.granted != s.released+uint64(s.active) {
		return fmt.Errorf("server %s: grants %d != releases %d + active %d",
			s.name, s.granted, s.released, s.active)
	}
	if cap := s.queueCap(); cap > 0 && s.QueueLen() > cap {
		return fmt.Errorf("server %s: queue length %d exceeds cap %d", s.name, s.QueueLen(), cap)
	}
	// Note active > poolSize is legal after a pool shrink (in-flight
	// requests drain down to the new size), so it is checked at grant
	// time, not here.
	if s.active < s.poolSize && s.QueueLen() > 0 {
		return fmt.Errorf("server %s: %d request(s) queued while %d thread(s) free",
			s.name, s.QueueLen(), s.poolSize-s.active)
	}
	return nil
}

// QueueDepthHistogram returns the histogram of queue depths observed by
// arriving requests over the server's lifetime.
func (s *Server) QueueDepthHistogram() *metrics.Histogram { return s.queueDepth }

// ServiceTimeHistogram returns the histogram of completed burst durations
// (seconds) over the server's lifetime.
func (s *Server) ServiceTimeHistogram() *metrics.Histogram { return s.svcTimes }

// SetDegradeFactor scales the server's Equation 5 base service time S0 by
// f for every subsequent burst — the chaos "degraded server" fault (a
// noisy neighbour, failing disk, or thermal throttling). Factors below 1
// are clamped to 1: degradation only ever slows a server down, and 1
// restores health. The contention (α) and crosstalk (β) terms are
// untouched; they are properties of the software, not the hardware.
func (s *Server) SetDegradeFactor(f float64) {
	if f < 1 {
		f = 1
	}
	s.degrade = f
}

// DegradeFactor returns the current S0 multiplier (1 = healthy).
func (s *Server) DegradeFactor() float64 { return s.degrade }

// Session is one acquisition of a server thread. The same struct serves
// first as the queued waiter (the outcome-aware callback plus the deadline
// timer, enqueue time for CoDel, and criticality) and then, once granted,
// as the held thread. Callers that acquire through AcquireInto own the
// storage and may reuse it once it is idle again: after a failed
// acquisition, or after Release.
type Session struct {
	s  *Server
	fn func(*Session, metrics.Disposition)
	// expireFn and burstFn are the deadline-timer and burst-completion
	// event bodies, built once per storage so recycled storage schedules
	// without allocating.
	expireFn func()
	burstFn  func()
	onDone   func() // the running burst's completion callback

	req       uint64
	gen       uint64 // bumped whenever a queue slot naming this storage dies
	enqueueAt sim.Time
	deadline  sim.Time // zero = no deadline
	timer     sim.Timer
	burst     time.Duration // the running burst's drawn duration
	critical  bool
	queued    bool
	released  bool // false only while a grant is held (never-used storage has s == nil)
	executing bool
	preempt   bool // the running burst is cut short at the deadline
	timedOut  bool // a burst was preempted by the deadline
}

// slot is one queue entry: the waiting storage and the generation it was
// queued under. A slot whose generation no longer matches its storage's
// is dead — its waiter timed out or was failed — even if the storage has
// since been reused for a newer acquisition.
type slot struct {
	w   *Session
	gen uint64
}

func (q slot) live() bool { return q.gen == q.w.gen }

// Deadline returns the request deadline carried by the session (zero
// when none was set at acquisition).
func (sess *Session) Deadline() sim.Time { return sess.deadline }

// TimedOut reports whether a burst on this session was preempted by the
// deadline; the caller must fail the request.
func (sess *Session) TimedOut() bool { return sess.timedOut }

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// Params returns the server's service-time law.
func (s *Server) Params() model.Params { return s.params }

// PoolSize returns the current thread pool size.
func (s *Server) PoolSize() int { return s.poolSize }

// Active returns the number of admitted (thread-holding) requests.
func (s *Server) Active() int { return s.active }

// QueueLen returns the number of requests waiting for a thread. Timed-out
// waiters whose slots have not been compacted yet do not count.
func (s *Server) QueueLen() int { return len(s.queue) - s.queueHead - s.queueDead }

// Accepting reports whether the server is taking new work (load balancers
// skip non-accepting servers; in-flight work is unaffected).
func (s *Server) Accepting() bool { return s.accepting }

// SetAccepting marks the server as accepting or draining.
func (s *Server) SetAccepting(v bool) { s.accepting = v }

// Kill crashes the server: it stops accepting work, every queued request
// is failed immediately (its Acquire callback runs with a nil session),
// and in-flight requests are marked killed — their bursts "complete" but
// Session.Killed reports true so the request flow can fail them, modeling
// connections torn down by a crashed process. Kill is idempotent.
func (s *Server) Kill() {
	if s.dead {
		return
	}
	s.dead = true
	s.accepting = false
	waiters := s.queue[s.queueHead:]
	s.queue, s.queueHead = nil, 0
	s.queueDead = 0
	for _, q := range waiters {
		if !q.live() {
			continue
		}
		w := q.w
		w.leaveQueue()
		w.timer.Cancel()
		s.failWaiter(w, metrics.DispositionError)
	}
}

// Dead reports whether Kill was called.
func (s *Server) Dead() bool { return s.dead }

// Killed reports whether the session's server crashed; work completed on a
// killed session is lost and the request must be failed.
func (sess *Session) Killed() bool { return sess.s.dead }

// Acquire requests a thread. fn is invoked with the session as soon as a
// thread is available — immediately if the pool has room, otherwise in FIFO
// order as threads free up. On a dead server fn is invoked immediately
// with a nil session: the caller must treat that as a failed request.
func (s *Server) Acquire(fn func(*Session)) { s.AcquireFor(0, fn) }

// AcquireFor is Acquire carrying the tracing request ID (0 = untraced).
// The session remembers the ID so burst events attribute to the request.
func (s *Server) AcquireFor(req uint64, fn func(*Session)) {
	if fn == nil {
		return
	}
	s.AcquireDeadline(req, 0, func(sess *Session, _ metrics.Disposition) { fn(sess) })
}

// AcquireDeadline is AcquireFor with resilience semantics: deadline (zero
// = none) is the request's absolute deadline — a waiter still queued when
// it expires fails with DispositionTimeout and never occupies a thread —
// and fn receives the disposition explaining a nil session (error on a
// dead server, rejected by the bounded queue, shed by CoDel, or timeout).
// With a zero deadline and admission control off this is exactly
// AcquireFor.
func (s *Server) AcquireDeadline(req uint64, deadline sim.Time, fn func(*Session, metrics.Disposition)) {
	s.AcquireDeadlineCritical(req, deadline, false, fn)
}

// AcquireDeadlineCritical is AcquireDeadline with a criticality flag:
// critical requests (high-priority traffic classes) are never shed by the
// CoDel dequeue check — load shedding sacrifices best-effort traffic
// first. Criticality is admission priority only: critical requests still
// queue FIFO behind earlier arrivals, still bounce off a full bounded
// queue and still time out against their deadline, so a flood of critical
// traffic degrades like any overload instead of bypassing admission
// control entirely. With critical == false this is exactly
// AcquireDeadline, and a critical request never touches the CoDel state,
// so class-free runs are byte-identical.
func (s *Server) AcquireDeadlineCritical(req uint64, deadline sim.Time, critical bool, fn func(*Session, metrics.Disposition)) {
	s.AcquireInto(new(Session), req, deadline, critical, fn)
}

// AcquireInto is AcquireDeadlineCritical into caller-owned storage: sess
// is queued while the request waits and becomes the granted session, so
// fn receives sess itself (or nil with the failure's disposition). The
// storage must be idle — never used, failed, or released — and acquiring
// into storage still queued or still holding a thread panics. Reusing
// idle storage allocates nothing.
func (s *Server) AcquireInto(sess *Session, req uint64, deadline sim.Time, critical bool, fn func(*Session, metrics.Disposition)) {
	if fn == nil {
		return
	}
	if sess.queued || sess.s != nil && !sess.released {
		panic("server: acquire into a session still queued or holding a thread")
	}
	sess.released = true
	if s.dead {
		fn(nil, metrics.DispositionError)
		return
	}
	now := s.eng.Now()
	if deadline > 0 && now >= deadline {
		s.timeouts.Inc(1)
		s.tracer.Record(req, trace.EventTimeout, s.tier, s.name, now)
		fn(nil, metrics.DispositionTimeout)
		return
	}
	s.queueDepth.Observe(float64(s.QueueLen()))
	sess.s, sess.fn, sess.req = s, fn, req
	sess.enqueueAt, sess.deadline, sess.critical = now, deadline, critical
	sess.timer = sim.Timer{}
	if s.active < s.poolSize && s.QueueLen() == 0 {
		s.tracer.Record(req, trace.EventQueueEnter, s.tier, s.name, now)
		s.grantWaiter(sess)
		return
	}
	if s.maxQueue > 0 && s.QueueLen() >= s.maxQueue {
		s.rejections.Inc(1)
		s.tracer.Record(req, trace.EventReject, s.tier, s.name, now)
		fn(nil, metrics.DispositionRejected)
		return
	}
	s.tracer.Record(req, trace.EventQueueEnter, s.tier, s.name, now)
	if deadline > 0 {
		if sess.expireFn == nil {
			sess.expireFn = sess.expire
		}
		sess.timer = s.eng.Schedule(deadline-now, sess.expireFn)
	}
	sess.queued = true
	s.enqueue(slot{w: sess, gen: sess.gen})
	if s.QueueLen() > s.queuePeak {
		s.queuePeak = s.QueueLen()
	}
}

// leaveQueue retires the waiter's queue slot in place: the slot's
// generation no longer matches, so it reads as dead until popped or
// compacted, whatever the storage is used for next.
func (sess *Session) leaveQueue() {
	sess.queued = false
	sess.gen++
}

// grantWaiter admits one request, accounting concurrency.
func (s *Server) grantWaiter(w *Session) {
	s.active++
	s.granted++
	now := s.eng.Now()
	if s.chk != nil {
		// A grant may never push occupancy past the pool (shrinks drain,
		// they do not grant) nor admit an already-expired request.
		if s.active > s.poolSize {
			s.chk.Violatef(now, invariant.RulePoolAccounting, "server "+s.name, w.req,
				"grant raised active to %d with pool size %d", s.active, s.poolSize)
		}
		if w.deadline > 0 && now >= w.deadline {
			s.chk.Violatef(now, invariant.RuleDeadline, "server "+s.name, w.req,
				"granted a thread %v past the deadline", now-w.deadline)
		}
	}
	s.concurrency.Set(now, float64(s.active))
	s.queueWaits.Observe((now - w.enqueueAt).Seconds())
	s.tracer.Record(w.req, trace.EventQueueExit, s.tier, s.name, now)
	w.released, w.executing, w.timedOut = false, false, false
	w.fn(w, metrics.DispositionOK)
}

// failWaiter completes a waiter without a session. The queue wait still
// counts toward the wait statistics — a request that waited and then
// failed waited all the same.
func (s *Server) failWaiter(w *Session, disp metrics.Disposition) {
	s.queueWaits.Observe((s.eng.Now() - w.enqueueAt).Seconds())
	w.fn(nil, disp)
}

// expire is the deadline timer body for a queued waiter.
func (sess *Session) expire() { sess.s.timeoutWaiter(sess) }

// timeoutWaiter marks a queued waiter's slot dead (lazily removed) and
// fails the request.
func (s *Server) timeoutWaiter(w *Session) {
	if !w.queued {
		return
	}
	w.leaveQueue()
	s.queueDead++
	s.timeouts.Inc(1)
	s.tracer.Record(w.req, trace.EventTimeout, s.tier, s.name, s.eng.Now())
	s.failWaiter(w, metrics.DispositionTimeout)
	s.maybeCompactQueue()
}

// maybeCompactQueue drops dead waiter slots once they dominate the queue,
// keeping QueueLen O(1) without paying O(n) per timeout.
func (s *Server) maybeCompactQueue() {
	if s.queueDead < 64 || s.queueDead*2 < len(s.queue)-s.queueHead {
		return
	}
	live := s.queue[:0]
	for _, q := range s.queue[s.queueHead:] {
		if q.live() {
			live = append(live, q)
		}
	}
	clear(s.queue[len(live):])
	s.queue, s.queueHead = live, 0
	s.queueDead = 0
}

// enqueue appends a slot. The queue reuses its array: a drained queue
// rewinds to the front, and a full one slides its slots down when at
// least half the array is popped prefix, so steady queueing traffic
// allocates nothing.
func (s *Server) enqueue(q slot) {
	if len(s.queue) == cap(s.queue) && s.queueHead > 0 && s.queueHead >= len(s.queue)/2 {
		n := copy(s.queue, s.queue[s.queueHead:])
		clear(s.queue[n:])
		s.queue, s.queueHead = s.queue[:n], 0
	}
	s.queue = append(s.queue, q)
}

// popWaiter removes and returns the first live waiter (nil when none).
func (s *Server) popWaiter() *Session {
	for s.queueHead < len(s.queue) {
		q := s.queue[s.queueHead]
		s.queue[s.queueHead] = slot{}
		s.queueHead++
		if s.queueHead == len(s.queue) {
			s.queue, s.queueHead = s.queue[:0], 0
		}
		if !q.live() {
			s.queueDead--
			continue
		}
		q.w.queued = false
		return q.w
	}
	return nil
}

// admitWaiters grants queued requests while threads are available,
// applying grant-time deadline checks and CoDel shedding.
func (s *Server) admitWaiters() {
	for s.active < s.poolSize {
		w := s.popWaiter()
		if w == nil {
			return
		}
		w.timer.Cancel()
		now := s.eng.Now()
		// The deadline may expire at the very timestamp of the grant, with
		// the timer event still pending behind this one: the waiter must
		// fail, not occupy a thread it would have to give straight back.
		if w.deadline > 0 && now >= w.deadline {
			s.timeouts.Inc(1)
			s.tracer.Record(w.req, trace.EventTimeout, s.tier, s.name, now)
			s.failWaiter(w, metrics.DispositionTimeout)
			continue
		}
		if !w.critical && s.codel.Enabled() && s.codel.OnDequeue(now, w.enqueueAt) {
			s.sheds.Inc(1)
			s.tracer.Record(w.req, trace.EventShed, s.tier, s.name, now)
			s.failWaiter(w, metrics.DispositionShed)
			continue
		}
		s.grantWaiter(w)
	}
}

// SetPoolSize resizes the thread pool at runtime. Growing admits waiting
// requests immediately; shrinking never interrupts in-flight requests —
// the pool drains down to the new size as they complete. Sizes below 1 are
// clamped to 1.
func (s *Server) SetPoolSize(n int) {
	if n < 1 {
		n = 1
	}
	s.poolSize = n
	s.admitWaiters()
}

// queueCap is the bound CheckInvariant holds the queue to: the admission
// cap, or the grandfathered backlog while a SetMaxQueue shrink drains.
// The grace expires the moment the queue is back under the cap.
func (s *Server) queueCap() int {
	if s.queueGrace > 0 && s.QueueLen() <= s.maxQueue {
		s.queueGrace = 0
	}
	if s.queueGrace > s.maxQueue {
		return s.queueGrace
	}
	return s.maxQueue
}

// MaxQueue returns the current admission cap (0 = unbounded).
func (s *Server) MaxQueue() int { return s.maxQueue }

// SetMaxQueue changes the bounded queue's admission cap at runtime
// (0 = unbounded). Shrinking below the live backlog never evicts queued
// requests — they were admitted legally and are grandfathered until the
// queue drains under the new cap — but new arrivals are rejected against
// the new cap immediately.
func (s *Server) SetMaxQueue(n int) {
	if n < 0 {
		n = 0
	}
	if n > 0 && s.QueueLen() > n {
		if s.QueueLen() > s.queueGrace {
			s.queueGrace = s.QueueLen()
		}
	} else {
		s.queueGrace = 0
	}
	s.maxQueue = n
}

// Exec runs one CPU burst on the session's thread and invokes onDone when
// it completes. The burst duration is the Equation 5 service time at the
// server's concurrency when the burst starts. Exec on a released session
// or a session already executing is a programming error and panics — it
// would silently corrupt concurrency accounting otherwise.
func (sess *Session) Exec(onDone func()) {
	sess.ExecDemand(1, onDone)
}

// ExecDemand is Exec with the burst's base demand scaled by demand: the
// servlet mix of a real application issues requests with different service
// demands, and demand scales the S0 work term while the contention and
// crosstalk penalties — properties of the server's state, not of the
// request — stay as they are. Non-positive demands are clamped to a
// negligible positive amount.
func (sess *Session) ExecDemand(demand float64, onDone func()) {
	if sess.released {
		panic("server: Exec on released session")
	}
	if sess.executing {
		panic("server: Exec on session already executing")
	}
	if demand <= 0 {
		demand = 1e-9
	}
	s := sess.s
	sess.executing = true
	s.executing++
	d := s.burstDuration(demand)
	now := s.eng.Now()
	// Deadline preemption: a burst that would finish past the request's
	// deadline is cut short at the deadline instead — the thread and CPU are
	// given back at the deadline, not when the doomed work would have
	// finished, so a timed-out request never occupies resources past its
	// deadline. The truncated burst counts as neither a completion nor a
	// service-time observation; the caller sees TimedOut() and must fail the
	// request.
	sess.preempt = sess.deadline > 0 && now+d > sess.deadline
	run := d
	if sess.preempt {
		run = sess.deadline - now
	}
	sess.burst, sess.onDone = d, onDone
	s.tracer.Record(sess.req, trace.EventServiceStart, s.tier, s.name, now)
	s.cpu.Enter(now)
	if sess.burstFn == nil {
		sess.burstFn = sess.burstEnd
	}
	s.eng.Schedule(run, sess.burstFn)
}

// burstEnd is the burst-completion event body.
func (sess *Session) burstEnd() {
	s := sess.s
	s.cpu.Exit(s.eng.Now())
	sess.executing = false
	s.executing--
	if sess.preempt {
		sess.timedOut = true
		s.timeouts.Inc(1)
		s.tracer.Record(sess.req, trace.EventTimeout, s.tier, s.name, s.eng.Now())
	} else {
		s.completions.Inc(1)
		s.execTimes.Observe(sess.burst.Seconds())
		s.svcTimes.Observe(sess.burst.Seconds())
		s.tracer.Record(sess.req, trace.EventServiceEnd, s.tier, s.name, s.eng.Now())
	}
	if onDone := sess.onDone; onDone != nil {
		sess.onDone = nil
		onDone()
	}
}

// burstDuration samples the Equation 5 service time at current concurrency
// (plus the thrash penalty past the knee), with optional mean-one lognormal
// noise. demand scales the S0 work term.
func (s *Server) burstDuration(demand float64) time.Duration {
	n := s.active
	if s.basis == BasisExecuting {
		n = s.executing // includes the burst being started
	}
	base := s.params.ServiceTime(float64(n)) + (demand-1)*s.params.S0
	if s.degrade > 1 {
		// Degraded hardware inflates the per-burst work term S0 (scaled by
		// the request's demand) while contention penalties stay put.
		base += (s.degrade - 1) * s.params.S0 * demand
	}
	if s.betaOnConf && s.configured > 0 {
		// Swap the instantaneous crosstalk for the configured-concurrency
		// crosstalk.
		nf := float64(n)
		if nf < 1 {
			nf = 1
		}
		cf := float64(s.configured)
		base += s.params.Beta * (cf*(cf-1) - nf*(nf-1))
	}
	if s.thrashKnee > 0 && n > s.thrashKnee {
		over := float64(n - s.thrashKnee)
		extra := s.thrashCoef * over * over
		if s.thrashCap > 0 && extra > s.thrashCap {
			extra = s.thrashCap
		}
		base += extra
	}
	if s.noise > 0 {
		base *= s.rnd.LogNormal(-s.noise*s.noise/2, s.noise)
	}
	if s.dist == DistExponential {
		base = s.rnd.Exp(base)
	}
	if base < 0 {
		base = 0
	}
	return time.Duration(base * float64(time.Second))
}

// SetConfiguredConcurrency records the externally allocated concurrency
// (e.g. the total upstream connection-pool size routed to this server)
// used by the BetaOnConfigured crosstalk model. Zero falls back to the
// instantaneous concurrency.
func (s *Server) SetConfiguredConcurrency(n int) {
	if n < 0 {
		n = 0
	}
	s.configured = n
}

// ConfiguredConcurrency returns the value set by SetConfiguredConcurrency.
func (s *Server) ConfiguredConcurrency() int { return s.configured }

// Release returns the session's thread to the pool and admits the next
// waiter. Releasing twice panics: a double release would inflate the
// pool's effective size.
func (sess *Session) Release() {
	if sess.released {
		panic("server: session released twice")
	}
	if sess.executing {
		panic("server: Release while executing")
	}
	sess.released = true
	s := sess.s
	s.active--
	s.released++
	if s.chk != nil && s.active < 0 {
		s.chk.Violatef(s.eng.Now(), invariant.RulePoolAccounting, "server "+s.name, sess.req,
			"release drove active negative (%d)", s.active)
	}
	s.concurrency.Set(s.eng.Now(), float64(s.active))
	s.admitWaiters()
}

// Sample is one monitoring interval's worth of server metrics — what the
// paper's fine-grained monitoring agent reports every second.
type Sample struct {
	// Completions is the number of CPU bursts finished in the interval.
	Completions uint64 `json:"completions"`
	// MeanExecSeconds is the mean burst duration in the interval (0 when no
	// bursts completed).
	MeanExecSeconds float64 `json:"meanExecSeconds"`
	// MeanQueueWaitSeconds is the mean time requests admitted in the
	// interval spent waiting for a thread.
	MeanQueueWaitSeconds float64 `json:"meanQueueWaitSeconds"`
	// Utilization is the CPU busy fraction over the interval.
	Utilization float64 `json:"utilization"`
	// MeanConcurrency is the time-weighted mean number of active threads.
	MeanConcurrency float64 `json:"meanConcurrency"`
	// Active is the instantaneous number of active threads.
	Active int `json:"active"`
	// QueueLen is the instantaneous queue length.
	QueueLen int `json:"queueLen"`
	// QueuePeak is the peak queue length since the previous sample.
	QueuePeak int `json:"queuePeak"`
	// PoolSize is the thread pool size at sampling time.
	PoolSize int `json:"poolSize"`
	// TimedOut, Rejected and Shed count the interval's resilience outcomes:
	// deadline expiries (queued, at grant, or mid-burst), bounded-queue
	// rejections, and CoDel sheds. All zero — and absent from JSON — when
	// resilience features are off.
	TimedOut uint64 `json:"timedOut,omitempty"`
	Rejected uint64 `json:"rejected,omitempty"`
	Shed     uint64 `json:"shed,omitempty"`
}

// TakeSample returns the metrics accumulated since the previous TakeSample
// call and starts a new interval.
func (s *Server) TakeSample() Sample {
	now := s.eng.Now()
	execMean, _ := s.execTimes.TakeMean()
	waitMean, _ := s.queueWaits.TakeMean()
	sample := Sample{
		Completions:          s.completions.TakeDelta(),
		MeanExecSeconds:      execMean,
		MeanQueueWaitSeconds: waitMean,
		Utilization:          s.cpu.TakeUtilization(now),
		MeanConcurrency:      s.concurrency.TakeAverage(now),
		Active:               s.active,
		QueueLen:             s.QueueLen(),
		QueuePeak:            s.queuePeak,
		PoolSize:             s.poolSize,
		TimedOut:             s.timeouts.TakeDelta(),
		Rejected:             s.rejections.TakeDelta(),
		Shed:                 s.sheds.TakeDelta(),
	}
	s.queuePeak = s.QueueLen()
	return sample
}

// TotalCompletions returns the lifetime number of completed CPU bursts.
func (s *Server) TotalCompletions() uint64 { return s.completions.Total() }

// TotalTimeouts returns the lifetime number of deadline expiries observed
// by this server (queued waiters, grant-time checks and preempted bursts).
func (s *Server) TotalTimeouts() uint64 { return s.timeouts.Total() }

// TotalRejections returns the lifetime number of bounded-queue rejections.
func (s *Server) TotalRejections() uint64 { return s.rejections.Total() }

// TotalSheds returns the lifetime number of CoDel sheds.
func (s *Server) TotalSheds() uint64 { return s.sheds.Total() }

// Package connpool simulates a database connection pool — the Tomcat-side
// soft resource that bounds the request-processing concurrency of the
// downstream MySQL tier (§II-A, §IV-B).
//
// The paper modified RUBBoS so all servlets share one global pool per
// Tomcat "in order to precisely control the number of concurrent requests
// flowing to the downstream MySQL"; a Pool models exactly that shared pool:
// FIFO acquisition, blocking waiters, and runtime resizing by the
// APP-agent.
package connpool

import (
	"errors"
	"fmt"

	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// ErrBadSize is returned for non-positive pool sizes at construction.
var ErrBadSize = errors.New("connpool: size must be >= 1")

// Pool is a counted resource with FIFO waiters. It must only be used from
// the simulation goroutine.
//
// Accounting invariant: size == inUse + free + leaked, where inUse counts
// connections held by requests, leaked counts connections consumed by an
// injected leak, and free = size - inUse - leaked is the admission
// headroom. free can go transiently negative — a leak lands while requests
// hold connections, or Resize shrinks below the held count — and the pool
// drains back to the invariant as connections release; it never admits
// while free <= 0. CheckInvariant verifies the identity.
type Pool struct {
	eng         *sim.Engine
	name        string
	size        int
	inUse       int
	leaked      int
	waiters     []slot // waiters[waitersHead:] is the FIFO; the popped prefix is zeroed
	waitersHead int
	waitersDead int // timed-out waiters still occupying queue slots
	maxWaiters  int

	held       metrics.TimeWeighted
	waits      metrics.MeanAccumulator
	grants     metrics.Counter
	timeouts   metrics.Counter
	rejections metrics.Counter
	waitHist   *metrics.Histogram

	tracer *trace.RequestTracer
	tier   string

	// releases is the lifetime number of returned connections; together
	// with grants and inUse it forms the conservation law
	// grants = releases + inUse checked by CheckInvariant.
	releases uint64
	chk      *invariant.Checker
}

// poolWaitBounds is the shared bucket layout for acquisition-wait
// histograms (seconds, 0.1 ms to ~52 s), matching the server layout so
// per-tier reports line up.
var poolWaitBounds = metrics.ExpBuckets(1e-4, 2, 20)

// Conn is one acquisition of a connection. The same struct serves first
// as the blocked waiter (the outcome-aware callback plus the deadline
// timer and enqueue time) and then, once granted, as the held connection.
// Callers that acquire through AcquireInto own the storage and may reuse
// it once it is idle again: after a failed acquisition, or after Release.
type Conn struct {
	p  *Pool
	fn func(*Conn, metrics.Disposition)
	// expireFn is the deadline-timer body, built once per storage so
	// recycled storage schedules without allocating.
	expireFn func()

	req       uint64
	gen       uint64 // bumped whenever a queue slot naming this storage dies
	enqueueAt sim.Time
	deadline  sim.Time
	timer     sim.Timer
	queued    bool
	held      bool
}

// slot is one waiter-queue entry: the blocked storage and the generation
// it was queued under. A slot whose generation no longer matches its
// storage's is dead — its waiter timed out — even if the storage has
// since been reused for a newer acquisition.
type slot struct {
	c   *Conn
	gen uint64
}

func (q slot) live() bool { return q.gen == q.c.gen }

// New returns a pool with the given size.
func New(eng *sim.Engine, name string, size int) (*Pool, error) {
	if eng == nil {
		return nil, errors.New("connpool: nil engine")
	}
	if size < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadSize, size)
	}
	return &Pool{eng: eng, name: name, size: size, waitHist: metrics.NewHistogram(poolWaitBounds)}, nil
}

// Name returns the pool name.
func (p *Pool) Name() string { return p.name }

// Size returns the configured pool size.
func (p *Pool) Size() int { return p.size }

// InUse returns the number of connections currently held by requests.
// Leaked connections are not in use — they are reported by Leaked — so a
// drain that waits for InUse to reach zero completes even under an
// unrepaired leak.
func (p *Pool) InUse() int { return p.inUse }

// Waiting returns the number of blocked acquirers. Timed-out waiters whose
// slots have not been compacted yet do not count.
func (p *Pool) Waiting() int { return len(p.waiters) - p.waitersHead - p.waitersDead }

// SetMaxWaiters bounds the waiter queue: an acquisition arriving when
// MaxWaiters acquirers are already blocked is rejected immediately (its
// callback runs with a nil connection and DispositionRejected). Zero or
// negative disables the bound — the historical behaviour.
func (p *Pool) SetMaxWaiters(n int) {
	if n < 0 {
		n = 0
	}
	p.maxWaiters = n
}

// Leaked returns the number of connections currently consumed by Leak.
func (p *Pool) Leaked() int { return p.leaked }

// Free returns the admission headroom size - inUse - leaked. It is
// negative while the pool is over-committed (after a leak or a shrink
// below the held count).
func (p *Pool) Free() int { return p.size - p.inUse - p.leaked }

// CheckInvariant verifies size == inUse + free + leaked and the
// non-negativity of each component count, returning a descriptive error on
// violation. Free may be negative (over-commit) — that is a legal
// transient — but inUse and leaked never.
func (p *Pool) CheckInvariant() error {
	if p.inUse < 0 || p.leaked < 0 || p.size < 1 {
		return fmt.Errorf("connpool %s: negative accounting: size=%d inUse=%d leaked=%d",
			p.name, p.size, p.inUse, p.leaked)
	}
	if got := p.inUse + p.Free() + p.leaked; got != p.size {
		return fmt.Errorf("connpool %s: invariant broken: inUse(%d) + free(%d) + leaked(%d) = %d != size(%d)",
			p.name, p.inUse, p.Free(), p.leaked, got, p.size)
	}
	if p.Free() > 0 && p.Waiting() > 0 {
		return fmt.Errorf("connpool %s: %d waiters blocked with free=%d", p.name, p.Waiting(), p.Free())
	}
	if n := len(p.waiters) - p.waitersHead; p.waitersDead < 0 || p.waitersDead > n {
		return fmt.Errorf("connpool %s: dead-waiter accounting broken: dead=%d of %d slots",
			p.name, p.waitersDead, n)
	}
	if p.grants.Total() != p.releases+uint64(p.inUse) {
		return fmt.Errorf("connpool %s: grants %d != releases %d + inUse %d",
			p.name, p.grants.Total(), p.releases, p.inUse)
	}
	if p.maxWaiters > 0 && p.Waiting() > p.maxWaiters {
		return fmt.Errorf("connpool %s: %d waiters exceed cap %d", p.name, p.Waiting(), p.maxWaiters)
	}
	return nil
}

// SetInvariantChecker attaches an invariant checker (nil detaches).
// Checking is read-only and never perturbs scheduling.
func (p *Pool) SetInvariantChecker(c *invariant.Checker) { p.chk = c }

// SetTracer attaches a request tracer (nil detaches) and the tier label
// recorded on this pool's wait events.
func (p *Pool) SetTracer(tr *trace.RequestTracer, tier string) {
	p.tracer = tr
	p.tier = tier
}

// WaitHistogram returns the histogram of acquisition waits (seconds) over
// the pool's lifetime.
func (p *Pool) WaitHistogram() *metrics.Histogram { return p.waitHist }

// Leak permanently consumes k connections — the chaos connection-leak
// fault (an application bug holding connections it never returns). Leaked
// connections count against the pool size immediately, even when that
// over-commits the pool: requests already holding connections keep them,
// and the pool's effective capacity shrinks as they release. The leak
// persists until Unleak repairs it. Non-positive k is a no-op.
func (p *Pool) Leak(k int) {
	if k <= 0 {
		return
	}
	p.leaked += k
	p.held.Set(p.eng.Now(), float64(p.inUse+p.leaked))
}

// Unleak repairs up to k leaked connections (all of them when k exceeds
// the current leak), returning them to the pool and admitting waiters.
func (p *Pool) Unleak(k int) {
	if k > p.leaked {
		k = p.leaked
	}
	if k <= 0 {
		return
	}
	p.leaked -= k
	p.held.Set(p.eng.Now(), float64(p.inUse+p.leaked))
	p.admit()
}

// Acquire requests a connection; fn runs as soon as one is available, in
// FIFO order behind earlier waiters.
func (p *Pool) Acquire(fn func(*Conn)) { p.AcquireFor(0, fn) }

// AcquireFor is Acquire carrying the tracing request ID (0 = untraced).
func (p *Pool) AcquireFor(req uint64, fn func(*Conn)) {
	if fn == nil {
		return
	}
	p.AcquireDeadline(req, 0, func(c *Conn, _ metrics.Disposition) { fn(c) })
}

// AcquireDeadline is AcquireFor with resilience semantics: deadline (zero
// = none) is the request's absolute deadline — a waiter still blocked when
// it expires fails with DispositionTimeout and never consumes a
// connection — and fn receives the disposition explaining a nil
// connection (rejected by the waiter bound, or timeout). With a zero
// deadline and no waiter bound this is exactly AcquireFor.
func (p *Pool) AcquireDeadline(req uint64, deadline sim.Time, fn func(*Conn, metrics.Disposition)) {
	p.AcquireInto(new(Conn), req, deadline, fn)
}

// AcquireInto is AcquireDeadline into caller-owned storage: c is queued
// while the acquisition blocks and becomes the granted connection, so fn
// receives c itself (or nil with the failure's disposition). The storage
// must be idle — never used, failed, or released — and acquiring into
// storage still queued or still holding a connection panics. Reusing
// idle storage allocates nothing.
func (p *Pool) AcquireInto(c *Conn, req uint64, deadline sim.Time, fn func(*Conn, metrics.Disposition)) {
	if fn == nil {
		return
	}
	if c.queued || c.held {
		panic("connpool: acquire into a connection still queued or held")
	}
	now := p.eng.Now()
	if deadline > 0 && now >= deadline {
		p.timeouts.Inc(1)
		p.tracer.Record(req, trace.EventTimeout, p.tier, p.name, now)
		fn(nil, metrics.DispositionTimeout)
		return
	}
	p.tracer.Record(req, trace.EventPoolWait, p.tier, p.name, now)
	c.p, c.fn, c.req = p, fn, req
	c.enqueueAt, c.deadline, c.timer = now, deadline, sim.Timer{}
	if p.Free() > 0 && p.Waiting() == 0 {
		p.grantWaiter(c)
		return
	}
	if p.maxWaiters > 0 && p.Waiting() >= p.maxWaiters {
		p.rejections.Inc(1)
		p.tracer.Record(req, trace.EventReject, p.tier, p.name, now)
		fn(nil, metrics.DispositionRejected)
		return
	}
	if deadline > 0 {
		if c.expireFn == nil {
			c.expireFn = c.expire
		}
		c.timer = p.eng.Schedule(deadline-now, c.expireFn)
	}
	c.queued = true
	p.enqueue(slot{c: c, gen: c.gen})
}

// grantWaiter hands one connection to a waiter, accounting the wait.
func (p *Pool) grantWaiter(w *Conn) {
	p.inUse++
	p.grants.Inc(1)
	now := p.eng.Now()
	if p.chk != nil {
		// Grants happen only while Free() > 0, so post-grant headroom may
		// never be negative; and an expired waiter must fail, not consume
		// a scarce downstream connection.
		if p.Free() < 0 {
			p.chk.Violatef(now, invariant.RulePoolAccounting, "connpool "+p.name, w.req,
				"grant drove free negative (%d) at size %d", p.Free(), p.size)
		}
		if w.deadline > 0 && now >= w.deadline {
			p.chk.Violatef(now, invariant.RuleDeadline, "connpool "+p.name, w.req,
				"granted a connection %v past the deadline", now-w.deadline)
		}
	}
	p.held.Set(now, float64(p.inUse+p.leaked))
	p.waits.Observe((now - w.enqueueAt).Seconds())
	p.waitHist.Observe((now - w.enqueueAt).Seconds())
	p.tracer.Record(w.req, trace.EventPoolGrant, p.tier, p.name, now)
	w.held = true
	w.fn(w, metrics.DispositionOK)
}

// failWaiter completes a waiter without a connection. The wait still
// counts toward the mean-wait statistic; the grant histogram records
// acquisitions only.
func (p *Pool) failWaiter(w *Conn, disp metrics.Disposition) {
	p.waits.Observe((p.eng.Now() - w.enqueueAt).Seconds())
	w.fn(nil, disp)
}

// expire is the deadline timer body for a blocked waiter.
func (c *Conn) expire() { c.p.timeoutWaiter(c) }

// timeoutWaiter marks a blocked waiter's slot dead (lazily removed) and
// fails the acquisition. No connection is consumed.
func (p *Pool) timeoutWaiter(w *Conn) {
	if !w.queued {
		return
	}
	w.queued = false
	w.gen++
	p.waitersDead++
	p.timeouts.Inc(1)
	p.tracer.Record(w.req, trace.EventTimeout, p.tier, p.name, p.eng.Now())
	p.failWaiter(w, metrics.DispositionTimeout)
	p.maybeCompact()
}

// maybeCompact drops dead waiter slots once they dominate the queue.
func (p *Pool) maybeCompact() {
	if p.waitersDead < 64 || p.waitersDead*2 < len(p.waiters)-p.waitersHead {
		return
	}
	live := p.waiters[:0]
	for _, q := range p.waiters[p.waitersHead:] {
		if q.live() {
			live = append(live, q)
		}
	}
	clear(p.waiters[len(live):])
	p.waiters, p.waitersHead = live, 0
	p.waitersDead = 0
}

// enqueue appends a slot. The queue reuses its array: a drained queue
// rewinds to the front, and a full one slides its slots down when at
// least half the array is popped prefix, so steady queueing traffic
// allocates nothing.
func (p *Pool) enqueue(q slot) {
	if len(p.waiters) == cap(p.waiters) && p.waitersHead > 0 && p.waitersHead >= len(p.waiters)/2 {
		n := copy(p.waiters, p.waiters[p.waitersHead:])
		clear(p.waiters[n:])
		p.waiters, p.waitersHead = p.waiters[:n], 0
	}
	p.waiters = append(p.waiters, q)
}

// popWaiter removes and returns the first live waiter (nil when none).
func (p *Pool) popWaiter() *Conn {
	for p.waitersHead < len(p.waiters) {
		q := p.waiters[p.waitersHead]
		p.waiters[p.waitersHead] = slot{}
		p.waitersHead++
		if p.waitersHead == len(p.waiters) {
			p.waiters, p.waitersHead = p.waiters[:0], 0
		}
		if !q.live() {
			p.waitersDead--
			continue
		}
		q.c.queued = false
		return q.c
	}
	return nil
}

func (p *Pool) admit() {
	for p.Free() > 0 {
		w := p.popWaiter()
		if w == nil {
			return
		}
		w.timer.Cancel()
		now := p.eng.Now()
		// A waiter whose deadline has passed by grant time must not consume
		// the connection — it would hold a scarce downstream slot only to
		// give it straight back. Fail it and hand the connection to the next
		// live waiter instead.
		if w.deadline > 0 && now >= w.deadline {
			p.timeouts.Inc(1)
			p.tracer.Record(w.req, trace.EventTimeout, p.tier, p.name, now)
			p.failWaiter(w, metrics.DispositionTimeout)
			continue
		}
		p.grantWaiter(w)
	}
}

// Release returns the connection. Releasing twice panics — it would let
// the pool admit more work than its size allows.
func (c *Conn) Release() {
	if !c.held {
		panic("connpool: connection released twice")
	}
	c.held = false
	p := c.p
	p.inUse--
	p.releases++
	if p.chk != nil && p.inUse < 0 {
		p.chk.Violatef(p.eng.Now(), invariant.RulePoolAccounting, "connpool "+p.name, 0,
			"release drove inUse negative (%d)", p.inUse)
	}
	p.held.Set(p.eng.Now(), float64(p.inUse+p.leaked))
	p.admit()
}

// Resize changes the pool size at runtime. Growing admits waiters
// immediately; shrinking is graceful — held and leaked connections stay
// valid and the pool drains to the new size as they are released or
// repaired. Sizes below 1 clamp to 1.
func (p *Pool) Resize(n int) {
	if n < 1 {
		n = 1
	}
	p.size = n
	p.admit()
}

// Sample reports one monitoring interval of pool metrics.
type Sample struct {
	// Grants is the number of acquisitions in the interval.
	Grants uint64 `json:"grants"`
	// MeanWaitSeconds is the mean acquisition wait in the interval.
	MeanWaitSeconds float64 `json:"meanWaitSeconds"`
	// MeanHeld is the time-weighted mean number of consumed connections
	// (held by requests plus leaked).
	MeanHeld float64 `json:"meanHeld"`
	// InUse and Waiting are instantaneous. InUse excludes leaked
	// connections.
	InUse   int `json:"inUse"`
	Waiting int `json:"waiting"`
	// Leaked is the number of connections consumed by an injected leak.
	Leaked int `json:"leaked,omitempty"`
	// Size is the pool size at sampling time.
	Size int `json:"size"`
	// TimedOut and Rejected count the interval's resilience outcomes:
	// acquisitions that expired before a grant and acquisitions refused by
	// the waiter bound. Zero — and absent from JSON — when deadlines and
	// waiter bounds are off.
	TimedOut uint64 `json:"timedOut,omitempty"`
	Rejected uint64 `json:"rejected,omitempty"`
}

// TakeSample returns the metrics accumulated since the previous call and
// starts a new interval.
func (p *Pool) TakeSample() Sample {
	wait, _ := p.waits.TakeMean()
	return Sample{
		Grants:          p.grants.TakeDelta(),
		MeanWaitSeconds: wait,
		MeanHeld:        p.held.TakeAverage(p.eng.Now()),
		InUse:           p.inUse,
		Waiting:         p.Waiting(),
		Leaked:          p.leaked,
		Size:            p.size,
		TimedOut:        p.timeouts.TakeDelta(),
		Rejected:        p.rejections.TakeDelta(),
	}
}

// TotalTimeouts returns the lifetime number of acquisition deadline
// expiries (while blocked or at grant time).
func (p *Pool) TotalTimeouts() uint64 { return p.timeouts.Total() }

// TotalRejections returns the lifetime number of waiter-bound rejections.
func (p *Pool) TotalRejections() uint64 { return p.rejections.Total() }

package graph

import (
	"errors"
	"time"

	"dcm/internal/connpool"
	"dcm/internal/invariant"
	"dcm/internal/lb"
	"dcm/internal/metrics"
	"dcm/internal/server"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// This file is the request walk: how one injected request travels the
// DAG. Each node visit is one pooled visit record driven as a small step
// machine: the record names what it is waiting for (a connection, a
// thread, a burst, a serial call, a parallel join), and advance moves it
// forward when that finishes. A call over an edge is a child record
// pointing at its parent; the parent keeps its place in the out-edges as
// an edge position and an issued count, and a parallel join as a
// remaining count and the lowest-index failure. The records carry their
// own server and pool waiter storage and callbacks built once, so a
// request in steady state allocates nothing.
//
// The sequence of picks, acquisitions, bursts, releases and records is a
// mechanical generalization of the chain walk internal/ntier always
// carried — for a 3-node linear topology it is bit-for-bit the same,
// which is what keeps every pre-refactor sha256 digest valid.

// deadlineFor computes the absolute deadline for a request arriving at
// start (zero when request timeouts are off).
func (a *App) deadlineFor(start sim.Time) sim.Time {
	if a.res.RequestTimeout <= 0 {
		return 0
	}
	return start + a.res.RequestTimeout
}

// pickDisposition classifies a balancer Pick error: a guard refusal is a
// breaker-open outcome, anything else a plain error (node down).
func pickDisposition(err error) metrics.Disposition {
	if errors.Is(err, lb.ErrGuarded) {
		return metrics.DispositionBreakerOpen
	}
	return metrics.DispositionError
}

// breakerRecord feeds a call outcome to the member's breaker. Only
// genuine backend verdicts count: OK is a success, errors and timeouts
// are failures. Backpressure verdicts (rejected, shed, a downstream
// breaker refusing) bypass the failure window — shedding is the admission
// layer doing its job, not evidence this backend is sick.
func (a *App) breakerRecord(m *Member, disp metrics.Disposition) {
	br := m.breaker
	if br == nil {
		return
	}
	switch disp {
	case metrics.DispositionOK:
		br.Record(a.eng.Now(), true)
	case metrics.DispositionError, metrics.DispositionTimeout:
		br.Record(a.eng.Now(), false)
	default:
		br.RecordNeutral()
	}
}

// tally folds one finished request's disposition into the app counters.
func (a *App) tally(d metrics.Disposition) {
	a.disp.Observe(d)
	switch d {
	case metrics.DispositionTimeout:
		a.timedOut.Inc(1)
	case metrics.DispositionRejected:
		a.rejected.Inc(1)
	case metrics.DispositionShed:
		a.shed.Inc(1)
	case metrics.DispositionBreakerOpen:
		a.brkOpen.Inc(1)
	}
}

// request is one injected request's record: what its completion needs
// once the entry visit reports. Records are recycled through App.freeReqs.
type request struct {
	a     *App
	id    uint64 // request-tracer ID
	start sim.Time
	class int    // class index, -1 when classless
	cls   *Class // nil when classless
	mixed *resolvedProfile
	done  func(rt time.Duration, ok bool)
	next  *request // free-list link
}

func (a *App) newRequest() *request {
	rq := a.freeReqs
	if rq == nil {
		return &request{a: a}
	}
	a.freeReqs = rq.next
	rq.next = nil
	return rq
}

// finish lands the request's disposition in the app, class and profile
// accounting, recycles the record, and reports to the injector.
func (rq *request) finish(disp metrics.Disposition) {
	a := rq.a
	ok := disp == metrics.DispositionOK
	a.inFlight--
	if a.chk != nil && a.inFlight < 0 {
		a.chk.Violatef(a.eng.Now(), invariant.RuleConservation, "graph", rq.id,
			"request finish drove in-flight negative (%d)", a.inFlight)
	}
	rt := a.eng.Now() - rq.start
	kind := trace.EventDone
	if !ok {
		kind = trace.EventFail
	}
	a.reqTracer.Record(rq.id, kind, "", "", a.eng.Now())
	a.tally(disp)
	if ok {
		a.completions.Inc(1)
		a.rts.Observe(rt.Seconds())
		a.rtWindow = append(a.rtWindow, rt.Seconds())
		if a.res.Enabled() {
			if sla := a.res.GoodputSLA(); sla <= 0 || rt <= sla {
				a.good.Inc(1)
			}
		}
	} else {
		a.errored.Inc(1)
	}
	if cls := rq.cls; cls != nil {
		st := &a.classes[rq.class]
		st.inFlight--
		a.classDisp.Observe(rq.class, disp)
		if ok {
			st.completions++
			st.rtSum += rt.Seconds()
			// The class SLO overrides the global goodput SLA; without
			// one, fall back to the resilience-wide threshold.
			sla := cls.SLO
			if sla <= 0 {
				sla = a.res.GoodputSLA()
			}
			if sla <= 0 || rt <= sla {
				st.good++
			}
		} else {
			st.errored++
		}
	} else {
		a.unclassedDisp.Observe(disp)
	}
	if rq.mixed != nil {
		acc := &a.profStats[rq.mixed.mix]
		if ok {
			acc.completions.Inc(1)
			acc.rtSum += rt.Seconds()
		} else {
			acc.errored.Inc(1)
		}
	}
	done := rq.done
	*rq = request{a: a, next: a.freeReqs}
	a.freeReqs = rq
	if done != nil {
		done(rt, ok)
	}
}

// Inject sends one request through the graph's entry node. done
// (optional) is invoked on completion with the end-to-end response time
// and whether the request succeeded. With a mix configured, the request's
// profile is drawn by weight. When resilience is configured the request
// carries an absolute deadline across every hop; its outcome is tallied
// as a disposition and, when it completes within the goodput SLA, as a
// good completion.
func (a *App) Inject(done func(rt time.Duration, ok bool)) {
	a.InjectClass(-1, 0, done)
}

// InjectClass is Inject for class-mixed workloads: class indexes the
// configured Classes (any out-of-range value, canonically -1, injects the
// classless flow), and session, when non-zero, is a session-affinity key
// — the entry node then picks the session's rendezvous-hashed home
// backend instead of rotating. A classless, sessionless call is
// byte-identical to Inject.
func (a *App) InjectClass(class int, session uint64, done func(rt time.Duration, ok bool)) {
	start := a.eng.Now()
	deadline := a.deadlineFor(start)
	a.inFlight++
	a.injected++
	var mixed *resolvedProfile
	if len(a.profiles) > 0 {
		mixed = a.pickProfile()
	}
	prof := mixed
	var cls *Class
	if class >= 0 && class < len(a.cfg.Classes) {
		cls = &a.cfg.Classes[class]
		prof = &a.classProfiles[class]
		a.classes[class].injected++
		a.classes[class].inFlight++
	} else {
		class = -1
	}
	if prof == nil {
		prof = &a.defaultPr
	}
	critical := cls != nil && cls.Priority > 0
	req := a.reqTracer.Begin()
	a.reqTracer.Record(req, trace.EventArrive, "", "", start)
	if cls != nil {
		a.reqTracer.RecordClass(req, cls.Name, start)
	}
	rq := a.newRequest()
	rq.id, rq.start, rq.class, rq.cls, rq.mixed, rq.done = req, start, class, cls, mixed, done

	// Brownout front-door shed: while the degrade controller holds a shed
	// ratio, best-effort arrivals are dropped before they touch the entry
	// node. Critical (Priority > 0) classes are never brownout-shed.
	if a.brownoutShed > 0 && !critical && a.brownoutTake() {
		a.brownoutSheds++
		if cls != nil {
			a.classes[class].bshed++
		}
		a.reqTracer.Record(req, trace.EventShed, "", "", a.eng.Now())
		rq.finish(metrics.DispositionShed)
		return
	}

	v := a.newVisit(visitEntry, a.entry, req, deadline, prof, critical)
	v.rq, v.session = rq, session
	v.enter()
}

// visitKind says how a visit was reached, and so whom it reports to.
type visitKind uint8

const (
	// visitEntry is a request's entry-node visit; it reports to the
	// request record.
	visitEntry visitKind = iota
	// visitCall is one call over an edge (pooled edges acquire a
	// connection first); it reports to the parent visit.
	visitCall
	// visitAsync is one fire-and-forget delivery over an async edge; it
	// reports to the async ledger.
	visitAsync
)

// step names what a visit is waiting for; advance resumes it from there.
type step uint8

const (
	stepConn    step = iota // the upstream connection (calls over pooled edges)
	stepThread              // a thread on the picked member
	stepBurst               // the node's CPU burst
	stepSerial              // the current serial call over out-edge pos
	stepJoin                // every branch of the parallel out-edge pos
	stepDeliver             // an async delivery's scheduled wake-up
)

// visit is the record of one node visit. Records are recycled through
// App.freeVisits; the callbacks handed to server, connpool and the engine
// are built once, when a record is first carved, and the server thread
// and pool connection are acquired into storage embedded here.
type visit struct {
	a    *App
	kind visitKind
	step step

	req      uint64 // request-tracer ID
	deadline sim.Time
	prof     *resolvedProfile
	critical bool
	session  uint64 // entry visits: session-affinity key (0 = none)

	n     *node
	m     *Member // the picked member, once picked
	start sim.Time
	edge  *edge // visitCall: the edge called over; visitAsync: the async edge

	parent *visit   // visitCall: the caller
	idx    int      // visitCall: branch index within the parent's parallel edge
	rq     *request // visitEntry: the request

	// Out-edge walk state while this visit's node calls downstream.
	pos       int                 // current out-edge
	issued    int                 // serial calls finished on out-edge pos
	remaining int                 // parallel branches still outstanding
	failIdx   int                 // lowest failed branch index, -1 when none
	failDisp  metrics.Disposition // that branch's disposition

	sess server.Session
	conn connpool.Conn

	onConn  func(*connpool.Conn, metrics.Disposition)
	onGrant func(*server.Session, metrics.Disposition)
	onWake  func()

	next *visit // free-list link
}

// newVisit takes a record off the free list (carving a new one when the
// list is empty) and starts it on node n.
func (a *App) newVisit(kind visitKind, n *node, req uint64, deadline sim.Time, prof *resolvedProfile, critical bool) *visit {
	v := a.freeVisits
	if v == nil {
		v = &visit{a: a}
		v.onConn = v.connDone
		v.onGrant = v.threadDone
		v.onWake = v.wake
	} else {
		a.freeVisits = v.next
		v.next = nil
	}
	v.kind, v.n, v.req, v.deadline, v.prof, v.critical = kind, n, req, deadline, prof, critical
	v.start = a.eng.Now()
	return v
}

// free returns the record to the free list. Its waiter storage is idle by
// now: the thread and connection were released or never granted.
func (v *visit) free() {
	a := v.a
	v.m, v.edge, v.parent, v.rq, v.prof, v.session = nil, nil, nil, nil, nil, 0
	v.next = a.freeVisits
	a.freeVisits = v
}

func (v *visit) connDone(_ *connpool.Conn, disp metrics.Disposition) { v.advance(disp) }

func (v *visit) threadDone(_ *server.Session, disp metrics.Disposition) { v.advance(disp) }

func (v *visit) wake() { v.advance(metrics.DispositionOK) }

// advance moves the visit forward once what its step names has finished
// with disp, running until the visit waits again or ends.
func (v *visit) advance(disp metrics.Disposition) {
	switch v.step {
	case stepConn:
		if disp != metrics.DispositionOK {
			// The call never reached the node: no ledger entry, no breaker
			// verdict.
			v.report(disp)
			return
		}
		v.enter()
	case stepThread:
		if disp != metrics.DispositionOK {
			v.releaseConn()
			v.a.breakerRecord(v.m, disp)
			v.settle(disp)
			return
		}
		v.step = stepBurst
		v.sess.ExecDemand(v.prof.demand[v.n.idx], v.onWake)
	case stepBurst:
		v.burstDone()
	case stepSerial:
		if disp != metrics.DispositionOK {
			v.complete(disp)
			return
		}
		v.issued++
		v.walk()
	case stepJoin:
		if disp != metrics.DispositionOK {
			v.complete(disp)
			return
		}
		v.pos++
		v.walk()
	case stepDeliver:
		v.deliver()
	}
}

// enter starts the visit at its node: count it in the node ledger, pick a
// member, consume a breaker admission, and queue for a thread.
func (v *visit) enter() {
	a, n := v.a, v.n
	n.started++
	n.inFlight++
	var be lb.Backend
	var err error
	if n.entry && v.session != 0 {
		be, err = n.balancer.PickSession(v.session)
	} else {
		be, err = n.balancer.Pick()
	}
	if err != nil {
		v.releaseConn()
		if errors.Is(err, lb.ErrGuarded) {
			a.reqTracer.Record(v.req, trace.EventBreakerOpen, n.spec.Name, "", a.eng.Now())
		}
		v.settle(pickDisposition(err))
		return
	}
	m := be.(*Member)
	v.m = m
	if br := m.breaker; br != nil && !br.Attempt(a.eng.Now()) {
		v.releaseConn()
		a.reqTracer.Record(v.req, trace.EventBreakerOpen, n.spec.Name, m.Name(), a.eng.Now())
		v.settle(metrics.DispositionBreakerOpen)
		return
	}
	v.step = stepThread
	m.srv.AcquireInto(&v.sess, v.req, v.deadline, v.critical, v.onGrant)
}

// burstDone judges the finished burst and, when the visit goes on,
// descends into the node's out-edges. A cache hit short-circuits: the
// reply is served locally and no out-edge is visited.
func (v *visit) burstDone() {
	n := v.n
	if v.kind == visitCall && len(n.outs) == 0 && !n.isCache() {
		// Leaf call: the verdict is read right here, a crashed backend
		// taking precedence over a deadline preemption — the chain's
		// DB-query semantics.
		killed := v.sess.Killed()
		timedOut := v.sess.TimedOut()
		v.release()
		disp := metrics.DispositionOK
		switch {
		case killed:
			disp = metrics.DispositionError
		case timedOut:
			disp = metrics.DispositionTimeout
		}
		v.a.breakerRecord(v.m, disp)
		v.settle(disp)
		return
	}
	if v.sess.TimedOut() {
		v.release()
		v.a.breakerRecord(v.m, metrics.DispositionTimeout)
		v.settle(metrics.DispositionTimeout)
		return
	}
	if n.isCache() && v.a.cacheLookup(n) {
		v.complete(metrics.DispositionOK)
		return
	}
	v.pos, v.issued = 0, 0
	v.walk()
}

// walk runs the out-edges from pos in declaration order, each to
// completion before the next starts; a failed edge aborts the remainder.
// Serial edges issue their visits one at a time, checking the deadline
// before each call; parallel edges fan all visits out at once and join
// them; async edges publish and move on.
func (v *visit) walk() {
	a := v.a
	for v.pos < len(v.n.outs) {
		e := v.n.outs[v.pos]
		visits := v.prof.visits[e.idx]
		switch e.spec.Kind {
		case EdgeAsync:
			a.fireAsync(e, visits, v.prof)
			v.pos++
		case EdgeParallel:
			if visits <= 0 {
				v.pos++
				continue
			}
			if v.deadline > 0 && a.eng.Now() >= v.deadline {
				v.complete(metrics.DispositionTimeout)
				return
			}
			v.step = stepJoin
			v.remaining, v.failIdx = visits, -1
			// A branch may finish synchronously; the last one to finish
			// advances (and may end) this visit, so nothing here reads
			// the record after the loop.
			for i := 0; i < visits; i++ {
				a.call(v, e, i)
			}
			return
		default:
			if v.issued >= visits {
				v.issued = 0
				v.pos++
				continue
			}
			if v.deadline > 0 && a.eng.Now() >= v.deadline {
				v.complete(metrics.DispositionTimeout)
				return
			}
			v.step = stepSerial
			a.call(v, e, 0)
			return
		}
	}
	v.complete(metrics.DispositionOK)
}

// call issues one call over edge e from parent p: acquire a connection
// from p's member when the edge is pooled (the residence window opens
// before the pool wait), then enter the destination.
func (a *App) call(p *visit, e *edge, idx int) {
	c := a.newVisit(visitCall, e.dst, p.req, p.deadline, p.prof, p.critical)
	c.edge, c.parent, c.idx = e, p, idx
	if e.pooled() {
		c.step = stepConn
		p.m.pools[e.pos].AcquireInto(&c.conn, c.req, c.deadline, c.onConn)
		return
	}
	c.enter()
}

// joinBranch folds one finished parallel branch into the join: every
// branch runs to completion, then the join reports once — the
// lowest-index failed branch's disposition, or OK when all succeeded.
func (v *visit) joinBranch(idx int, disp metrics.Disposition) {
	v.remaining--
	if disp != metrics.DispositionOK && (v.failIdx < 0 || idx < v.failIdx) {
		v.failIdx, v.failDisp = idx, disp
	}
	if v.remaining > 0 {
		return
	}
	joined := metrics.DispositionOK
	if v.failIdx >= 0 {
		joined = v.failDisp
	}
	v.advance(joined)
}

// releaseConn gives back the upstream connection of a call over a pooled
// edge (a no-op for every other visit).
func (v *visit) releaseConn() {
	if v.kind == visitCall && v.edge.pooled() {
		v.conn.Release()
	}
}

// release gives back the visit's thread and upstream connection and
// closes its residence window.
func (v *visit) release() {
	v.sess.Release()
	v.releaseConn()
	v.n.res.Observe((v.a.eng.Now() - v.start).Seconds())
}

// complete ends a visit whose out-edge walk (or cache hit) finished with
// disp: work done on a crashed member is lost.
func (v *visit) complete(disp metrics.Disposition) {
	v.release()
	if disp == metrics.DispositionOK && v.sess.Killed() {
		disp = metrics.DispositionError
	}
	v.a.breakerRecord(v.m, disp)
	v.settle(disp)
}

// settle lands the visit's disposition in the node ledger exactly once
// and reports it.
func (v *visit) settle(disp metrics.Disposition) {
	n := v.n
	n.inFlight--
	n.visits.Observe(disp)
	v.report(disp)
}

// report recycles the record and hands disp to whoever waits on the
// visit: the parent's serial call or parallel join, the request, or the
// async ledger.
func (v *visit) report(disp metrics.Disposition) {
	a, kind, parent, idx, rq := v.a, v.kind, v.parent, v.idx, v.rq
	v.free()
	switch kind {
	case visitCall:
		if parent.step == stepJoin {
			parent.joinBranch(idx, disp)
		} else {
			parent.advance(disp)
		}
	case visitEntry:
		rq.finish(disp)
	default:
		a.asyncInFlight--
		a.asyncDisp.Observe(disp)
	}
}

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
// DAG. The control flow is a mechanical generalization of the chain walk
// internal/ntier carried since PR 1 — for a 3-node linear topology the
// sequence of picks, acquisitions, bursts, releases and records is
// bit-for-bit the same, which is what keeps every pre-refactor sha256
// digest valid.

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

// breakerAttempt consumes a breaker admission for the member (half-open
// probe accounting); true when the call may proceed. Always true when
// breakers are off.
func (a *App) breakerAttempt(m *Member) bool {
	br := a.breakers[m.Name()]
	return br == nil || br.Attempt(a.eng.Now())
}

// breakerRecord feeds a call outcome to the member's breaker. Only
// genuine backend verdicts count: OK is a success, errors and timeouts
// are failures. Backpressure verdicts (rejected, shed, a downstream
// breaker refusing) bypass the failure window — shedding is the admission
// layer doing its job, not evidence this backend is sick.
func (a *App) breakerRecord(m *Member, disp metrics.Disposition) {
	br := a.breakers[m.Name()]
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

// ledger wraps a visit's completion in the target node's conservation
// accounting: the visit is counted when it starts and its disposition
// lands exactly once. Pure counting — no events, no draws.
func (a *App) ledger(n *node, done func(metrics.Disposition)) func(metrics.Disposition) {
	n.started++
	n.inFlight++
	return func(d metrics.Disposition) {
		n.inFlight--
		n.visits.Observe(d)
		done(d)
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
	finish := func(disp metrics.Disposition) {
		ok := disp == metrics.DispositionOK
		a.inFlight--
		if a.chk != nil && a.inFlight < 0 {
			a.chk.Violatef(a.eng.Now(), invariant.RuleConservation, "graph", req,
				"request finish drove in-flight negative (%d)", a.inFlight)
		}
		rt := a.eng.Now() - start
		kind := trace.EventDone
		if !ok {
			kind = trace.EventFail
		}
		a.reqTracer.Record(req, kind, "", "", a.eng.Now())
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
		if cls != nil {
			st := &a.classes[class]
			st.inFlight--
			a.classDisp.Observe(class, disp)
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
		if mixed != nil {
			acc := a.profStats[mixed.name]
			if ok {
				acc.completions.Inc(1)
				acc.rtSum += rt.Seconds()
			} else {
				acc.errored.Inc(1)
			}
		}
		if done != nil {
			done(rt, ok)
		}
	}

	// Brownout front-door shed: while the degrade controller holds a shed
	// ratio, best-effort arrivals are dropped before they touch the entry
	// node. Critical (Priority > 0) classes are never brownout-shed.
	if a.brownoutShed > 0 && !critical && a.brownoutTake() {
		a.brownoutSheds++
		if cls != nil {
			a.classes[class].bshed++
		}
		a.reqTracer.Record(req, trace.EventShed, "", "", a.eng.Now())
		finish(metrics.DispositionShed)
		return
	}

	a.visitNode(req, deadline, a.entry, session, prof, critical, finish)
}

// visitNode runs one visit of node n reached without a connection pool:
// pick a member, acquire a thread, run the burst, descend the out-edges
// with the thread held, then release and report. It serves the entry node
// (session-sticky picks) and async deliveries.
func (a *App) visitNode(req uint64, deadline sim.Time, n *node, session uint64, prof *resolvedProfile, critical bool, done func(metrics.Disposition)) {
	done = a.ledger(n, done)
	var be lb.Backend
	var err error
	if n.entry && session != 0 {
		be, err = n.balancer.PickSession(session)
	} else {
		be, err = n.balancer.Pick()
	}
	if err != nil {
		if errors.Is(err, lb.ErrGuarded) {
			a.reqTracer.Record(req, trace.EventBreakerOpen, n.spec.Name, "", a.eng.Now())
		}
		done(pickDisposition(err))
		return
	}
	m, ok := n.members[be.Name()]
	if !ok {
		done(metrics.DispositionError)
		return
	}
	if !a.breakerAttempt(m) {
		a.reqTracer.Record(req, trace.EventBreakerOpen, n.spec.Name, m.Name(), a.eng.Now())
		done(metrics.DispositionBreakerOpen)
		return
	}
	start := a.eng.Now()
	m.srv.AcquireDeadlineCritical(req, deadline, critical, func(sess *server.Session, acqDisp metrics.Disposition) {
		if sess == nil {
			a.breakerRecord(m, acqDisp)
			done(acqDisp)
			return
		}
		sess.ExecDemand(prof.demand[n.idx], func() {
			if sess.TimedOut() {
				sess.Release()
				n.res.Observe((a.eng.Now() - start).Seconds())
				a.breakerRecord(m, metrics.DispositionTimeout)
				done(metrics.DispositionTimeout)
				return
			}
			a.descend(req, deadline, n, m, prof, critical, func(disp metrics.Disposition) {
				sess.Release()
				n.res.Observe((a.eng.Now() - start).Seconds())
				if disp == metrics.DispositionOK && sess.Killed() {
					disp = metrics.DispositionError
				}
				a.breakerRecord(m, disp)
				done(disp)
			})
		})
	})
}

// descend walks a node's out-edges after its burst completed. A cache hit
// short-circuits: the reply is served locally and no out-edge is visited.
func (a *App) descend(req uint64, deadline sim.Time, n *node, m *Member, prof *resolvedProfile, critical bool, done func(metrics.Disposition)) {
	if n.isCache() && a.cacheLookup(n) {
		done(metrics.DispositionOK)
		return
	}
	a.walkEdges(req, deadline, n, m, prof, critical, 0, done)
}

// walkEdges runs the out-edges of n in declaration order, each to
// completion before the next starts; a failed edge aborts the remainder.
func (a *App) walkEdges(req uint64, deadline sim.Time, n *node, m *Member, prof *resolvedProfile, critical bool, pos int, done func(metrics.Disposition)) {
	if pos >= len(n.outs) {
		done(metrics.DispositionOK)
		return
	}
	e := n.outs[pos]
	visits := prof.visits[e.idx]
	next := func(disp metrics.Disposition) {
		if disp != metrics.DispositionOK {
			done(disp)
			return
		}
		a.walkEdges(req, deadline, n, m, prof, critical, pos+1, done)
	}
	switch e.spec.Kind {
	case EdgeAsync:
		a.fireAsync(e, visits, prof)
		next(metrics.DispositionOK)
	case EdgeParallel:
		a.visitParallel(req, deadline, e, m, prof, critical, visits, next)
	default:
		a.visitSerial(req, deadline, e, m, prof, critical, 0, visits, next)
	}
}

// visitSerial issues the edge's visits sequentially, checking the
// deadline before each call — the chain's DB-query loop, verbatim.
func (a *App) visitSerial(req uint64, deadline sim.Time, e *edge, src *Member, prof *resolvedProfile, critical bool, issued, visits int, done func(metrics.Disposition)) {
	if issued >= visits {
		done(metrics.DispositionOK)
		return
	}
	if deadline > 0 && a.eng.Now() >= deadline {
		done(metrics.DispositionTimeout)
		return
	}
	a.issueCall(req, deadline, e, src, prof, critical, func(disp metrics.Disposition) {
		if disp != metrics.DispositionOK {
			done(disp)
			return
		}
		a.visitSerial(req, deadline, e, src, prof, critical, issued+1, visits, done)
	})
}

// visitParallel fans the edge's visits out concurrently and joins them:
// every branch runs to completion, then the join reports once — the first
// failed branch's disposition, or OK when all branches succeeded.
func (a *App) visitParallel(req uint64, deadline sim.Time, e *edge, src *Member, prof *resolvedProfile, critical bool, visits int, done func(metrics.Disposition)) {
	if visits <= 0 {
		done(metrics.DispositionOK)
		return
	}
	if deadline > 0 && a.eng.Now() >= deadline {
		done(metrics.DispositionTimeout)
		return
	}
	disps := make([]metrics.Disposition, visits)
	remaining := visits
	for i := 0; i < visits; i++ {
		i := i
		a.issueCall(req, deadline, e, src, prof, critical, func(disp metrics.Disposition) {
			disps[i] = disp
			remaining--
			if remaining > 0 {
				return
			}
			joined := metrics.DispositionOK
			for _, d := range disps {
				if d != metrics.DispositionOK {
					joined = d
					break
				}
			}
			done(joined)
		})
	}
}

// issueCall makes one call over edge e from the src member: acquire a
// connection when the edge is pooled (the residence window opens before
// the pool wait), then visit the destination.
func (a *App) issueCall(req uint64, deadline sim.Time, e *edge, src *Member, prof *resolvedProfile, critical bool, done func(metrics.Disposition)) {
	start := a.eng.Now()
	if !e.pooled() {
		a.callTarget(req, deadline, e, nil, start, prof, critical, done)
		return
	}
	src.pools[e.pos].AcquireDeadline(req, deadline, func(conn *connpool.Conn, acqDisp metrics.Disposition) {
		if conn == nil {
			done(acqDisp)
			return
		}
		a.callTarget(req, deadline, e, conn, start, prof, critical, done)
	})
}

// callTarget runs one visit of edge e's destination: pick a member,
// acquire a thread, run the burst, descend, then release the thread (and
// the upstream connection) and report. conn is nil for unpooled edges.
func (a *App) callTarget(req uint64, deadline sim.Time, e *edge, conn *connpool.Conn, start sim.Time, prof *resolvedProfile, critical bool, done func(metrics.Disposition)) {
	n := e.dst
	done = a.ledger(n, done)
	be, err := n.balancer.Pick()
	if err != nil {
		if conn != nil {
			conn.Release()
		}
		if errors.Is(err, lb.ErrGuarded) {
			a.reqTracer.Record(req, trace.EventBreakerOpen, n.spec.Name, "", a.eng.Now())
		}
		done(pickDisposition(err))
		return
	}
	m, ok := n.members[be.Name()]
	if !ok {
		if conn != nil {
			conn.Release()
		}
		done(metrics.DispositionError)
		return
	}
	if !a.breakerAttempt(m) {
		if conn != nil {
			conn.Release()
		}
		a.reqTracer.Record(req, trace.EventBreakerOpen, n.spec.Name, m.Name(), a.eng.Now())
		done(metrics.DispositionBreakerOpen)
		return
	}
	m.srv.AcquireDeadlineCritical(req, deadline, critical, func(sess *server.Session, acqDisp metrics.Disposition) {
		if sess == nil {
			if conn != nil {
				conn.Release()
			}
			a.breakerRecord(m, acqDisp)
			done(acqDisp)
			return
		}
		sess.ExecDemand(prof.demand[n.idx], func() {
			if len(n.outs) == 0 && !n.isCache() {
				// Leaf visit: the verdict is read right here, a crashed
				// backend taking precedence over a deadline preemption —
				// the chain's DB-query semantics.
				killed := sess.Killed()
				timedOut := sess.TimedOut()
				sess.Release()
				if conn != nil {
					conn.Release()
				}
				n.res.Observe((a.eng.Now() - start).Seconds())
				switch {
				case killed:
					a.breakerRecord(m, metrics.DispositionError)
					done(metrics.DispositionError)
				case timedOut:
					a.breakerRecord(m, metrics.DispositionTimeout)
					done(metrics.DispositionTimeout)
				default:
					a.breakerRecord(m, metrics.DispositionOK)
					done(metrics.DispositionOK)
				}
				return
			}
			if sess.TimedOut() {
				sess.Release()
				if conn != nil {
					conn.Release()
				}
				n.res.Observe((a.eng.Now() - start).Seconds())
				a.breakerRecord(m, metrics.DispositionTimeout)
				done(metrics.DispositionTimeout)
				return
			}
			a.descend(req, deadline, n, m, prof, critical, func(disp metrics.Disposition) {
				sess.Release()
				if conn != nil {
					conn.Release()
				}
				n.res.Observe((a.eng.Now() - start).Seconds())
				if disp == metrics.DispositionOK && sess.Killed() {
					disp = metrics.DispositionError
				}
				a.breakerRecord(m, disp)
				done(disp)
			})
		})
	})
}

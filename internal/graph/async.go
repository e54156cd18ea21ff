package graph

import (
	"dcm/internal/metrics"
)

// Async fire-and-forget edges: the upstream visit publishes one message
// per visit to the edge's bus topic and continues immediately — the
// downstream work happens on its own clock and never affects the parent
// request's disposition. Deliveries are conserved in a separate ledger
// (AsyncLedger) so the whole-graph sweep still balances.

// asyncMsg is the payload published per fire-and-forget delivery.
type asyncMsg struct {
	// Profile names the demand profile the delivery runs under ("" = the
	// topology defaults).
	Profile string `json:"profile,omitempty"`
	// Seq is the spawn sequence number (1-based, per app).
	Seq uint64 `json:"seq"`
}

// fireAsync publishes the edge's visits and schedules their deliveries.
// The publish is durable-ordered through internal/bus — the consumer
// drains the topic in offset order — and the delivery itself is a normal
// node visit with no deadline and no upstream to answer to.
func (a *App) fireAsync(e *edge, visits int, prof *resolvedProfile) {
	for i := 0; i < visits; i++ {
		a.asyncSpawned++
		a.asyncInFlight++
		msg := asyncMsg{Profile: prof.name, Seq: a.asyncSpawned}
		if _, err := a.bs.Publish(e.topic, e.spec.key(), msg); err != nil {
			// Topic was created at build time; a failed publish means the
			// bus was closed under us. Account the delivery as errored so
			// the async ledger still conserves.
			a.asyncInFlight--
			a.asyncDisp.Observe(metrics.DispositionError)
			continue
		}
		v := a.newVisit(visitAsync, e.dst, 0, 0, prof, false)
		v.edge, v.step = e, stepDeliver
		a.eng.Schedule(0, v.onWake)
	}
}

// deliver consumes one message from the async edge's topic and runs the
// downstream visit. Each delivery begins its own trace identity: the
// parent request has already moved on.
func (v *visit) deliver() {
	a := v.a
	recs, err := v.edge.consumer.Poll(1)
	if err != nil || len(recs) == 0 {
		// Nothing buffered (another delivery raced us to the record);
		// conservation-wise this spawn still completes.
		v.report(metrics.DispositionError)
		return
	}
	v.req = a.reqTracer.Begin()
	v.start = a.eng.Now()
	v.enter()
}

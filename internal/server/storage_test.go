package server

import (
	"testing"
	"time"

	"dcm/internal/metrics"
)

// TestReusedStorageSkipsItsDeadSlot pins the generation stamp on queue
// slots: a waiter times out, and its storage is reused for a new
// acquisition on the same server while the timed-out slot is still in the
// queue behind another live waiter. When threads free up, the dead slot
// must be skipped — not mistaken for the live storage it names, which
// would jump the queue — and the new acquisition granted exactly once,
// after the waiter ahead of it, with grants = releases + active holding.
func TestReusedStorageSkipsItsDeadSlot(t *testing.T) {
	t.Parallel()
	eng, srv := newResilientServer(t, Config{PoolSize: 1})
	var held *Session
	srv.Acquire(func(sess *Session) { held = sess })

	var w Session
	var outcomes []metrics.Disposition
	var order []string
	grants := 0
	reuse := func(sess *Session, d metrics.Disposition) {
		if sess == nil {
			t.Errorf("reused storage failed with %v", d)
			return
		}
		if sess != &w {
			t.Error("grant did not hand back the caller's storage")
		}
		grants++
		order = append(order, "reused")
		sess.Exec(sess.Release)
	}
	srv.AcquireInto(&w, 1, time.Second, false, func(sess *Session, d metrics.Disposition) {
		outcomes = append(outcomes, d)
		if sess != nil {
			t.Error("expired waiter granted a thread")
			return
		}
		// Reuse the storage at once: its dead slot is still queued.
		srv.AcquireInto(&w, 2, 0, false, reuse)
		if srv.QueueLen() != 2 {
			t.Errorf("queue len = %d after reuse, want 2 live waiters", srv.QueueLen())
		}
		if err := srv.CheckInvariant(); err != nil {
			t.Error(err)
		}
	})
	srv.Acquire(func(sess *Session) {
		order = append(order, "ahead")
		sess.Exec(sess.Release)
	})
	eng.Schedule(2*time.Second, func() { held.Release() })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 1 || outcomes[0] != metrics.DispositionTimeout {
		t.Fatalf("first acquisition outcomes %v, want one timeout", outcomes)
	}
	if grants != 1 {
		t.Fatalf("reused storage granted %d times, want exactly once", grants)
	}
	if len(order) != 2 || order[0] != "ahead" {
		t.Fatalf("grant order %v, want the waiter ahead first", order)
	}
	if srv.Active() != 0 || srv.QueueLen() != 0 || srv.TotalCompletions() != 2 {
		t.Fatalf("active = %d, queue = %d, completions = %d after drain",
			srv.Active(), srv.QueueLen(), srv.TotalCompletions())
	}
	if err := srv.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireIntoInUseStoragePanics pins that storage still queued or
// still holding a thread cannot be acquired into again.
func TestAcquireIntoInUseStoragePanics(t *testing.T) {
	t.Parallel()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("acquire into %s storage did not panic", what)
			}
		}()
		f()
	}
	_, srv := newServer(t, 1)
	noop := func(*Session, metrics.Disposition) {}
	var holding, queued Session
	srv.AcquireInto(&holding, 0, 0, false, noop)
	srv.AcquireInto(&queued, 0, 0, false, noop)
	mustPanic("holding", func() { srv.AcquireInto(&holding, 0, 0, false, noop) })
	mustPanic("queued", func() { srv.AcquireInto(&queued, 0, 0, false, noop) })

	// Released storage is idle again and may be reused.
	holding.Release() // grants the queued storage
	queued.Release()
	srv.AcquireInto(&holding, 0, 0, false, noop)
	if srv.Active() != 1 {
		t.Fatalf("active = %d after reusing released storage, want 1", srv.Active())
	}
}

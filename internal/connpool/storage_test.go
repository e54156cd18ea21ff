package connpool

import (
	"testing"
	"time"

	"dcm/internal/metrics"
)

// TestReusedStorageSkipsItsDeadSlot pins the generation stamp on waiter
// slots: a waiter times out, and its storage is reused for a new
// acquisition on the same pool while the timed-out slot is still queued
// behind another live waiter. When connections free up, the dead slot must
// be skipped — not mistaken for the live storage it names, which would
// jump the queue — and the new acquisition granted exactly once, after the
// waiter ahead of it, with grants = releases + inUse holding.
func TestReusedStorageSkipsItsDeadSlot(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 1)
	var held *Conn
	p.Acquire(func(c *Conn) { held = c })

	var w Conn
	var outcomes []metrics.Disposition
	var order []string
	grants := 0
	p.AcquireInto(&w, 1, time.Second, func(c *Conn, d metrics.Disposition) {
		outcomes = append(outcomes, d)
		if c != nil {
			t.Error("expired waiter granted a connection")
			return
		}
		// Reuse the storage at once: its dead slot is still queued.
		p.AcquireInto(&w, 2, 0, func(c *Conn, d metrics.Disposition) {
			if c == nil {
				t.Errorf("reused storage failed with %v", d)
				return
			}
			if c != &w {
				t.Error("grant did not hand back the caller's storage")
			}
			grants++
			order = append(order, "reused")
			c.Release()
		})
		if p.Waiting() != 2 {
			t.Errorf("waiting = %d after reuse, want 2 live waiters", p.Waiting())
		}
		if err := p.CheckInvariant(); err != nil {
			t.Error(err)
		}
	})
	p.Acquire(func(c *Conn) {
		order = append(order, "ahead")
		c.Release()
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
	if p.InUse() != 0 || p.Waiting() != 0 {
		t.Fatalf("inUse = %d, waiting = %d after drain", p.InUse(), p.Waiting())
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireIntoInUseStoragePanics pins that storage still queued or
// still holding a connection cannot be acquired into again.
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
	_, p := newPool(t, 1)
	noop := func(*Conn, metrics.Disposition) {}
	var holding, queued Conn
	p.AcquireInto(&holding, 0, 0, noop)
	p.AcquireInto(&queued, 0, 0, noop)
	mustPanic("held", func() { p.AcquireInto(&holding, 0, 0, noop) })
	mustPanic("queued", func() { p.AcquireInto(&queued, 0, 0, noop) })

	// Released storage is idle again and may be reused.
	holding.Release() // grants the queued storage
	queued.Release()
	p.AcquireInto(&holding, 0, 0, noop)
	if p.InUse() != 1 {
		t.Fatalf("inUse = %d after reusing released storage, want 1", p.InUse())
	}
}

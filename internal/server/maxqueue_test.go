package server

import (
	"testing"
	"time"

	"dcm/internal/metrics"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

func newBoundedServer(t *testing.T, pool, maxQueue int) (*sim.Engine, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	srv, err := New(eng, rng.New(1).Split("srv"), Config{
		Name:     "s1",
		Model:    linearParams,
		PoolSize: pool,
		MaxQueue: maxQueue,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, srv
}

// fill occupies the pool and queues extra requests, returning a counter
// of rejected admissions.
func fill(srv *Server, n int, rejected *int) {
	for i := 0; i < n; i++ {
		srv.AcquireDeadline(uint64(i+1), 0, func(sess *Session, d metrics.Disposition) {
			if sess == nil {
				if d == metrics.DispositionRejected {
					*rejected++
				}
				return
			}
			sess.Exec(sess.Release)
		})
	}
}

func TestSetMaxQueueTightensNewArrivals(t *testing.T) {
	t.Parallel()
	_, srv := newBoundedServer(t, 1, 10)
	var rejected int
	fill(srv, 5, &rejected) // 1 executing + 4 queued, cap 10: all admitted
	if rejected != 0 || srv.QueueLen() != 4 {
		t.Fatalf("rejected=%d queue=%d, want 0/4", rejected, srv.QueueLen())
	}
	srv.SetMaxQueue(4)
	if got := srv.MaxQueue(); got != 4 {
		t.Fatalf("MaxQueue = %d, want 4", got)
	}
	// The queue already sits at the new cap: the next arrival bounces.
	fill(srv, 1, &rejected)
	if rejected != 1 {
		t.Fatalf("rejected=%d after tightening, want 1", rejected)
	}
}

// TestSetMaxQueueGrandfathersBacklog pins the shrink semantics: cutting
// the cap below the live backlog evicts nothing and does not trip the
// queue-bound invariant — the grandfathered depth is legal until the
// queue drains under the new cap, while new arrivals are rejected
// against the new cap immediately.
func TestSetMaxQueueGrandfathersBacklog(t *testing.T) {
	t.Parallel()
	eng, srv := newBoundedServer(t, 1, 10)
	var rejected int
	fill(srv, 9, &rejected) // 1 executing + 8 queued
	if rejected != 0 || srv.QueueLen() != 8 {
		t.Fatalf("rejected=%d queue=%d, want 0/8", rejected, srv.QueueLen())
	}
	srv.SetMaxQueue(2)
	if srv.QueueLen() != 8 {
		t.Fatalf("queue = %d after shrink, want 8 (no eviction)", srv.QueueLen())
	}
	if err := srv.CheckInvariant(); err != nil {
		t.Fatalf("invariant tripped on grandfathered backlog: %v", err)
	}
	fill(srv, 1, &rejected)
	if rejected != 1 {
		t.Fatalf("rejected=%d, want 1 (new arrivals judged by the new cap)", rejected)
	}
	// Drain under the new cap: the grace clears, the bound is the cap
	// again, and the invariant still holds throughout.
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if srv.QueueLen() != 0 {
		t.Fatalf("queue = %d after drain, want 0", srv.QueueLen())
	}
	if err := srv.CheckInvariant(); err != nil {
		t.Fatalf("invariant after drain: %v", err)
	}
	// Post-drain the cap is live: 1 executing + 2 queued + reject.
	rejected = 0
	fill(srv, 4, &rejected)
	if rejected != 1 || srv.QueueLen() != 2 {
		t.Fatalf("rejected=%d queue=%d after drain, want 1/2", rejected, srv.QueueLen())
	}
}

func TestSetMaxQueueUnboundedAndClamp(t *testing.T) {
	t.Parallel()
	_, srv := newBoundedServer(t, 1, 2)
	var rejected int
	fill(srv, 5, &rejected)
	if rejected != 2 {
		t.Fatalf("rejected=%d with cap 2, want 2", rejected)
	}
	srv.SetMaxQueue(0) // unbounded
	fill(srv, 10, &rejected)
	if rejected != 2 {
		t.Fatalf("rejected=%d after unbounding, want still 2", rejected)
	}
	srv.SetMaxQueue(-5)
	if got := srv.MaxQueue(); got != 0 {
		t.Fatalf("MaxQueue = %d after negative set, want 0", got)
	}
}

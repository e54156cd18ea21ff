package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dcm/internal/controller"
	"dcm/internal/workload"
)

// span is one timed interval around a call the driver makes into a layer.
type span struct {
	id, parent int32 // parent is -1 for a root span
	name       string
	start, end int64 // host ns since the recorder's origin
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps a traced run's spans in memory. The run is single
// goroutine, so the innermost open span is the parent of the next one. A
// nil recorder records nothing, which keeps untraced runs free of it.
type recorder struct {
	run    string
	origin time.Time
	spans  []span
	open   []int32
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, start: int64(time.Since(r.origin))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span never overlap: the run is single goroutine.
func (r *recorder) selfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// durations returns the durations, in ns, of the spans with the name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// total sums the durations and self times of the spans with the name.
func (r *recorder) total(name string) (dur, self int64) {
	selfs := r.selfTimes()
	for i, s := range r.spans {
		if s.name == name {
			dur += s.dur()
			self += selfs[i]
		}
	}
	return dur, self
}

// writeJSONL writes a header line with the host fingerprint and then one
// line per span.
func (r *recorder) writeJSONL(path string, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"run": r.run, "host": h}); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	selfs := r.selfTimes()
	for i, s := range r.spans {
		fmt.Fprintf(w, `{"run":%q,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			r.run, s.id, s.parent, s.name, s.start, s.end, selfs[i])
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	return f.Close()
}

// tracedTarget times each request injection into the data plane.
type tracedTarget struct {
	inner workload.Target
	rec   *recorder
}

func (t *tracedTarget) Inject(done func(rt time.Duration, ok bool)) {
	id := t.rec.begin("inject")
	t.inner.Inject(done)
	t.rec.end(id)
}

// tracedClassTarget keeps the ClassTarget method set of a wrapped target:
// the generators type-assert it, and losing it would change class routing.
type tracedClassTarget struct {
	tracedTarget
	class workload.ClassTarget
}

func (t *tracedClassTarget) InjectClass(class int, session uint64, done func(rt time.Duration, ok bool)) {
	id := t.rec.begin("inject")
	t.class.InjectClass(class, session, done)
	t.rec.end(id)
}

// wrapTarget returns t itself when rec is nil.
func wrapTarget(t workload.Target, rec *recorder) workload.Target {
	if rec == nil {
		return t
	}
	if ct, ok := t.(workload.ClassTarget); ok {
		return &tracedClassTarget{tracedTarget: tracedTarget{inner: t, rec: rec}, class: ct}
	}
	return &tracedTarget{inner: t, rec: rec}
}

// tracedController times and counts each control-period evaluation.
type tracedController struct {
	inner       controller.Controller
	rec         *recorder
	evaluations uint64
}

func (c *tracedController) Name() string { return c.inner.Name() }

func (c *tracedController) Evaluate(view controller.SystemView) []controller.Action {
	id := c.rec.begin("controller.evaluate")
	c.evaluations++
	acts := c.inner.Evaluate(view)
	c.rec.end(id)
	return acts
}

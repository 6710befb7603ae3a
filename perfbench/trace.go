package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function.
type span struct {
	name       string
	start, end int64 // ns since the tracer started
	parent     int32 // index of the enclosing span, -1 at op level
	op         int32
}

// tracer keeps spans and counters in memory for one traced window and writes
// the spans out when the run ends. A nil *tracer records nothing, so the
// untraced path calls the same code with no tracing cost beyond a nil check.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	parent int32 // span that oracle spans started now belong to
	op     int32
	counts map[string]float64
	// probeTime is the probe time not yet taken out of an op's latency.
	probeTime time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), parent: -1, counts: make(map[string]float64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// setOp starts op i: later spans carry its id.
func (t *tracer) setOp(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = int32(i)
	t.parent = -1
	t.mu.Unlock()
}

// begin opens a span of the current op under the current parent and returns
// its id.
func (t *tracer) begin(name string) int32 { return t.beginOp(name, -1) }

// beginOp opens a top-level span of op, or of the current op when op < 0;
// concurrent requests of an open loop name their op explicitly.
func (t *tracer) beginOp(name string, op int) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{name: name, start: start, parent: t.parent, op: t.op}
	if op >= 0 {
		s.parent, s.op = -1, int32(op)
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// beginParent opens a span that the spans begun until its end nest under.
// Only the op goroutine calls it, so nesting follows the call structure even
// when the generator fans oracle calls out across goroutines.
func (t *tracer) beginParent(name string) int32 {
	id := t.begin(name)
	if t != nil {
		t.mu.Lock()
		t.parent = id
		t.mu.Unlock()
	}
	return id
}

// end closes span id; a span opened with beginParent hands parenthood back.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = end
	if t.parent == id {
		t.parent = s.parent
	}
}

// probe times fn in a span of its own that the op's latency leaves out: fn
// repeats work the op has already done, only to time one layer on its own.
func (t *tracer) probe(name string, fn func() error) error {
	t0 := time.Now()
	id := t.begin(name)
	err := fn()
	t.end(id)
	t.mu.Lock()
	t.probeTime += time.Since(t0)
	t.mu.Unlock()
	return err
}

// takeProbe returns the probe time spent since the last call.
func (t *tracer) takeProbe() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.probeTime
	t.probeTime = 0
	return d
}

// add accumulates a counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// layerTime sums, per span name, the spans' durations in ms.
func (t *tracer) layerTime() map[string]float64 {
	ms := make(map[string]float64)
	for _, s := range t.spans {
		ms[s.name] += float64(s.end-s.start) / 1e6
	}
	return ms
}

// selfTime sums, over spans named name, the span's duration minus the part
// of it that its child spans cover (children may overlap when the generator
// fans out, so the covered part is the union of their intervals).
func (t *tracer) selfTime(name string) float64 {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var total int64
	for i, s := range t.spans {
		if s.name != name {
			continue
		}
		ivs := children[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		total += (s.end - s.start) - covered(s.start, s.end, ivs)
	}
	return float64(total) / 1e6
}

// covered returns how much of [lo, hi) the union of ivs, sorted by start,
// covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var total, reach int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], reach), min(iv[1], hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// write stores the spans as tab-separated lines: name, start ns, end ns,
// parent, op.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\top")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanOracle times every call into the oracle below it. It implements
// core.BatchOracle and forwards batches whole: the generator type-asserts
// its oracle for the batch path, so a wrapper without it would silently move
// a batched run onto the serial path and change what is measured.
type spanOracle struct {
	tr    *tracer
	name  string
	inner core.BatchOracle
}

var _ core.BatchOracle = (*spanOracle)(nil)

// traceOracle wraps o when tracing; untraced runs get o itself.
func traceOracle(tr *tracer, name string, o core.BatchOracle) core.Oracle {
	if tr == nil {
		return o
	}
	return &spanOracle{tr: tr, name: name, inner: o}
}

func (o *spanOracle) BlockTemps(active []int) ([]float64, error) {
	id := o.tr.begin(o.name)
	temps, err := o.inner.BlockTemps(active)
	o.tr.end(id)
	o.tr.add(o.name+".calls", 1)
	return temps, err
}

func (o *spanOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	id := o.tr.begin(o.name)
	temps, err := o.inner.BlockTempsBatch(sessions)
	o.tr.end(id)
	o.tr.add(o.name+".calls", float64(len(sessions)))
	return temps, err
}

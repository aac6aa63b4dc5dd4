package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"hardsnap/internal/bus"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// layer names one timed seam. Every timed call records a span and
// bumps its layer's call and busy counters.
type layer uint8

const (
	layerRun layer = iota
	layerSave
	layerRestore
	layerRestoreDelta
	layerAdvance
	layerReset
	layerAdopt
	layerBusRead
	layerBusWrite
	layerBusIRQ
	layerSnapmanRestore
	layerVMRestore
	layerVMExec
	numLayers
)

var layerNames = [numLayers]string{
	"core.run",
	"target.save", "target.restore", "target.restore_delta", "target.advance",
	"target.reset", "target.adopt_state",
	"bus.read", "bus.write", "bus.irq",
	"core.snapman_restore", "vm.restore_snapshot", "vm.exec",
}

// targetLayers and busLayers are the leaf seams the decorators time;
// their busy time is what core.residual_ns and vm.exec.self_ns
// subtract.
var (
	targetLayers = []layer{layerSave, layerRestore, layerRestoreDelta, layerAdvance, layerReset, layerAdopt}
	busLayers    = []layer{layerBusRead, layerBusWrite, layerBusIRQ}
)

// span is one timed interval, in nanoseconds since the recorder's
// base. parent indexes the enclosing span in recorder.spans (-1 for a
// root, or when the parent was not kept).
type span struct {
	start, end int64
	parent     int32
	job        int32
	name       layer
}

// maxSpans bounds the spans kept in memory (about 10 MB); counters
// keep counting past it, and the dropped count is written with the
// spans.
const maxSpans = 1 << 18

// recorder holds the traced run's counters and spans. It is used from
// one goroutine: every workload runs with one engine worker.
type recorder struct {
	base      time.Time
	calls     [numLayers]uint64
	busy      [numLayers]int64
	deltaHits uint64
	spans     []span
	dropped   uint64
	job       int32
	open      []int32 // stack of open parent spans
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 4096)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// resetCounters zeroes the per-job counters; spans accumulate.
func (r *recorder) resetCounters() {
	r.calls = [numLayers]uint64{}
	r.busy = [numLayers]int64{}
	r.deltaHits = 0
}

func (r *recorder) parent() int32 {
	if n := len(r.open); n > 0 {
		return r.open[n-1]
	}
	return -1
}

func (r *recorder) keep(s span) int32 {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// leaf records a completed call that started at start.
func (r *recorder) leaf(l layer, start int64) {
	end := r.now()
	r.calls[l]++
	r.busy[l] += end - start
	r.keep(span{start: start, end: end, parent: r.parent(), job: r.job, name: l})
}

// enter opens a parent span; the matching exit closes it. Calls timed
// in between become its children.
func (r *recorder) enter(l layer) int64 {
	start := r.now()
	idx := r.keep(span{start: start, end: start, parent: r.parent(), job: r.job, name: l})
	r.open = append(r.open, idx)
	return start
}

func (r *recorder) exit(l layer, start int64) {
	end := r.now()
	r.calls[l]++
	r.busy[l] += end - start
	idx := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	if idx >= 0 {
		r.spans[idx].end = end
	}
}

func (r *recorder) sum(ls []layer) int64 {
	var t int64
	for _, l := range ls {
		t += r.busy[l]
	}
	return t
}

// writeSpans writes the kept spans as CSV (name,start_ns,end_ns,
// parent,job), one per line, with the dropped count as a comment.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans=%d dropped=%d\nname,start_ns,end_ns,parent,job\n", len(r.spans), r.dropped)
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", layerNames[s.name], s.start, s.end, s.parent, s.job)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTarget is a target.Interface decorator that times the calls
// that move hardware state or advance it. It forwards every method
// and hands out timed ports and timed spawned workers, so an engine
// run over it takes the same decisions as over the bare target.
type timedTarget struct {
	inner target.Interface
	rec   *recorder
}

var _ target.Interface = (*timedTarget)(nil)

func (t *timedTarget) Name() string                        { return t.inner.Name() }
func (t *timedTarget) Kind() string                        { return t.inner.Kind() }
func (t *timedTarget) Clock() *vtime.Clock                 { return t.inner.Clock() }
func (t *timedTarget) Stats() target.Stats                 { return t.inner.Stats() }
func (t *timedTarget) StateBits() uint                     { return t.inner.StateBits() }
func (t *timedTarget) Generation() uint64                  { return t.inner.Generation() }
func (t *timedTarget) AnchorSeq() uint64                   { return t.inner.AnchorSeq() }
func (t *timedTarget) InjectFaults(s target.FaultSchedule) { t.inner.InjectFaults(s) }
func (t *timedTarget) SetRetryPolicy(p target.RetryPolicy) { t.inner.SetRetryPolicy(p) }

func (t *timedTarget) TakeViolations() []target.Violation { return t.inner.TakeViolations() }

func (t *timedTarget) FaultSchedule() (target.FaultSchedule, bool) { return t.inner.FaultSchedule() }

func (t *timedTarget) Port(name string) (bus.Port, error) {
	p, err := t.inner.Port(name)
	if err != nil {
		return nil, err
	}
	return timePort(p, t.rec), nil
}

func (t *timedTarget) Advance(n uint64) error {
	s := t.rec.now()
	err := t.inner.Advance(n)
	t.rec.leaf(layerAdvance, s)
	return err
}

func (t *timedTarget) Reset() error {
	s := t.rec.now()
	err := t.inner.Reset()
	t.rec.leaf(layerReset, s)
	return err
}

func (t *timedTarget) Save() (target.State, error) {
	s := t.rec.now()
	st, err := t.inner.Save()
	t.rec.leaf(layerSave, s)
	return st, err
}

func (t *timedTarget) Restore(st target.State) error {
	s := t.rec.now()
	err := t.inner.Restore(st)
	t.rec.leaf(layerRestore, s)
	return err
}

func (t *timedTarget) RestoreDelta(st target.State) (bool, error) {
	s := t.rec.now()
	did, err := t.inner.RestoreDelta(st)
	t.rec.leaf(layerRestoreDelta, s)
	if did {
		t.rec.deltaHits++
	}
	return did, err
}

func (t *timedTarget) AdoptState(st target.State) error {
	s := t.rec.now()
	err := t.inner.AdoptState(st)
	t.rec.leaf(layerAdopt, s)
	return err
}

// SpawnWorker wraps the spawned child too, so a parallel engine's
// worker targets stay timed. The recorder is single-goroutine; the
// workloads run one engine worker and never spawn.
func (t *timedTarget) SpawnWorker(name string, clock *vtime.Clock, stream int) (target.Interface, error) {
	w, err := t.inner.SpawnWorker(name, clock, stream)
	if err != nil {
		return nil, err
	}
	return &timedTarget{inner: w, rec: t.rec}, nil
}

// timedPort times one peripheral's register transactions.
type timedPort struct {
	inner bus.Port
	rec   *recorder
}

// timedFlushPort keeps the bus.Flusher surface of a buffering port,
// so the router still drains it.
type timedFlushPort struct {
	timedPort
	flusher bus.Flusher
}

func (p *timedFlushPort) Flush() error { return p.flusher.Flush() }

func timePort(p bus.Port, rec *recorder) bus.Port {
	tp := timedPort{inner: p, rec: rec}
	if f, ok := p.(bus.Flusher); ok {
		return &timedFlushPort{timedPort: tp, flusher: f}
	}
	return &tp
}

func (p *timedPort) ReadReg(off uint32) (uint32, error) {
	s := p.rec.now()
	v, err := p.inner.ReadReg(off)
	p.rec.leaf(layerBusRead, s)
	return v, err
}

func (p *timedPort) WriteReg(off uint32, v uint32) error {
	s := p.rec.now()
	err := p.inner.WriteReg(off, v)
	p.rec.leaf(layerBusWrite, s)
	return err
}

func (p *timedPort) IRQLevel() (bool, error) {
	s := p.rec.now()
	v, err := p.inner.IRQLevel()
	p.rec.leaf(layerBusIRQ, s)
	return v, err
}

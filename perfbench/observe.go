package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
)

// Span is one timed interval of the traced run. Spans of one step share
// Step; Parent is the ID of the enclosing span (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Rank   int    `json:"rank"`
	Step   int    `json:"step"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps every finished span in memory until the run ends.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open allocates a span ID and stamps its start; the span is recorded
// only when close is called.
func (t *Tracer) open(rank, step int, parent int64, name string) Span {
	return Span{ID: t.nextID.Add(1), Parent: parent, Rank: rank, Step: step, Name: name, Start: t.now()}
}

func (t *Tracer) close(s Span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as a JSON array ordered by start time.
func (t *Tracer) WriteFile(path string) error {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		_ = f.Close() // the encode error is the one to report
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// Collective operations counted per step.
const (
	opAllReduce = iota
	opAllGatherV
	opReduceScatterV
	opBroadcast
	opOther
	numOps
)

var opNames = [numOps]string{"allreduce", "allgatherv", "reducescatterv", "broadcast", "other"}

// Traffic is what one rank's comm and transport layers did over some
// interval. All durations are summed over calls.
type Traffic struct {
	Calls     [numOps]int
	CommBytes int64         // bytes of the buffers handed to collectives
	Exposed   time.Duration // time callers were blocked in Work.Wait
	Frames    int           // transport frames sent
	Payload   int64         // payload bytes of those frames
	Wire      int64         // Payload plus frame headers
	Send      time.Duration // time inside Mesh.Send
	Recv      time.Duration // time inside Mesh.Recv
	Busy      time.Duration // union of intervals with a Send or Recv in flight
}

// TotalCalls sums the per-op call counts.
func (t Traffic) TotalCalls() int {
	n := 0
	for _, c := range t.Calls {
		n += c
	}
	return n
}

// rankObs observes one rank: the comm and transport wrappers report
// into it and the training loop tells it which step and phase run.
type rankObs struct {
	rank   int
	tr     *Tracer
	header int // bytes of frame header the transport adds per frame

	step     atomic.Int64 // step being run
	stepSpan atomic.Int64 // ID of that step's root span
	phase    atomic.Int64 // ID of the phase span the rank is in

	mu       sync.Mutex
	cur      Traffic
	inflight int   // transport calls in flight
	busyFrom int64 // when inflight last rose from zero
}

func newRankObs(rank int, tr *Tracer, header int) *rankObs {
	return &rankObs{rank: rank, tr: tr, header: header}
}

// take returns the traffic since the previous take and resets it. The
// training loop calls it between steps, when no collective is in
// flight.
func (o *rankObs) take() Traffic {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := o.cur
	o.cur = Traffic{}
	return t
}

func (o *rankObs) transportBegin() int64 {
	now := o.tr.now()
	o.mu.Lock()
	if o.inflight == 0 {
		o.busyFrom = now
	}
	o.inflight++
	o.mu.Unlock()
	return now
}

func (o *rankObs) transportEnd(name string, start int64, payload int, send bool) {
	end := o.tr.now()
	o.mu.Lock()
	o.inflight--
	if o.inflight == 0 {
		o.cur.Busy += time.Duration(end - o.busyFrom)
	}
	if send {
		o.cur.Frames++
		o.cur.Payload += int64(payload)
		o.cur.Wire += int64(payload + o.header)
		o.cur.Send += time.Duration(end - start)
	} else {
		o.cur.Recv += time.Duration(end - start)
	}
	o.mu.Unlock()
	o.tr.close(Span{ID: o.tr.nextID.Add(1), Parent: o.stepSpan.Load(), Rank: o.rank,
		Step: int(o.step.Load()), Name: name, Start: start, End: end})
}

// obsMesh is a transport.Mesh that times and counts every frame. It
// forwards the optional interfaces the comm layer probes for, so a
// group built over it behaves exactly like one built over the mesh it
// wraps.
type obsMesh struct {
	transport.Mesh
	o *rankObs
}

func (m *obsMesh) Send(to int, tag uint64, data []float32) error {
	start := m.o.transportBegin()
	err := m.Mesh.Send(to, tag, data)
	m.o.transportEnd("transport.send", start, 4*len(data), true)
	return err
}

func (m *obsMesh) Recv(from int, tag uint64) ([]float32, error) {
	start := m.o.transportBegin()
	data, err := m.Mesh.Recv(from, tag)
	m.o.transportEnd("transport.recv", start, 0, false)
	return data, err
}

func (m *obsMesh) SendBytes(to int, tag uint64, data []byte) error {
	bm, ok := transport.ByteLanes(m.Mesh)
	if !ok {
		return fmt.Errorf("perfbench: wrapped mesh has no byte lanes")
	}
	start := m.o.transportBegin()
	err := bm.SendBytes(to, tag, data)
	m.o.transportEnd("transport.send", start, len(data), true)
	return err
}

func (m *obsMesh) RecvBytes(from int, tag uint64) ([]byte, error) {
	bm, ok := transport.ByteLanes(m.Mesh)
	if !ok {
		return nil, fmt.Errorf("perfbench: wrapped mesh has no byte lanes")
	}
	start := m.o.transportBegin()
	data, err := bm.RecvBytes(from, tag)
	m.o.transportEnd("transport.recv", start, 0, false)
	return data, err
}

// HasByteLanes implements transport.ByteLaneProber.
func (m *obsMesh) HasByteLanes() bool {
	_, ok := transport.ByteLanes(m.Mesh)
	return ok
}

// Hosts implements transport.HostLister. A nil answer (the wrapped mesh
// knows no placement) makes comm derive no topology, as it would for
// the wrapped mesh itself.
func (m *obsMesh) Hosts() []string {
	if hl, ok := m.Mesh.(transport.HostLister); ok {
		return hl.Hosts()
	}
	return nil
}

// Abort implements transport.Aborter, falling back to Close the way
// comm does for meshes without one.
func (m *obsMesh) Abort() error {
	if a, ok := m.Mesh.(transport.Aborter); ok {
		return a.Abort()
	}
	return m.Mesh.Close()
}

var (
	_ transport.ByteMesh       = (*obsMesh)(nil)
	_ transport.ByteLaneProber = (*obsMesh)(nil)
	_ transport.HostLister     = (*obsMesh)(nil)
	_ transport.Aborter        = (*obsMesh)(nil)
)

// obsGroup is a comm.ShardedGroup (the interface fsdp.New asserts) that
// counts collectives and times how long callers wait on them.
type obsGroup struct {
	comm.ShardedGroup
	o *rankObs
}

// track counts a submitted collective and wraps its handle so the wait
// is timed and a comm.<op> span covers submit to Wait return.
func (g *obsGroup) track(op int, elems int, w comm.Work) comm.Work {
	g.o.mu.Lock()
	g.o.cur.Calls[op]++
	g.o.cur.CommBytes += 4 * int64(elems)
	g.o.mu.Unlock()
	span := g.o.tr.open(g.o.rank, int(g.o.step.Load()), g.o.phase.Load(), "comm."+opNames[op])
	return &obsWork{Work: w, o: g.o, span: span}
}

func (g *obsGroup) AllReduce(data []float32, op comm.ReduceOp) comm.Work {
	return g.track(opAllReduce, len(data), g.ShardedGroup.AllReduce(data, op))
}

func (g *obsGroup) Broadcast(data []float32, root int) comm.Work {
	return g.track(opBroadcast, len(data), g.ShardedGroup.Broadcast(data, root))
}

func (g *obsGroup) AllGather(dst [][]float32, src []float32) comm.Work {
	return g.track(opOther, len(src), g.ShardedGroup.AllGather(dst, src))
}

func (g *obsGroup) Barrier() comm.Work {
	return g.track(opOther, 1, g.ShardedGroup.Barrier())
}

func (g *obsGroup) ReduceScatterV(data []float32, op comm.ReduceOp) comm.Work {
	return g.track(opReduceScatterV, len(data), g.ShardedGroup.ReduceScatterV(data, op))
}

func (g *obsGroup) AllGatherV(data []float32) comm.Work {
	return g.track(opAllGatherV, len(data), g.ShardedGroup.AllGatherV(data))
}

func (g *obsGroup) CompressedReduceScatterV(data []float32, op comm.ReduceOp, codec comm.WireCodec, residual []float32) comm.Work {
	return g.track(opReduceScatterV, len(data), g.ShardedGroup.CompressedReduceScatterV(data, op, codec, residual))
}

// Abort implements comm.Aborter, falling back to Close like
// comm.AbortGroup does.
func (g *obsGroup) Abort() error { return comm.AbortGroup(g.ShardedGroup) }

var _ comm.Aborter = (*obsGroup)(nil)

// obsWork times the first Wait on a collective's handle.
type obsWork struct {
	comm.Work
	o    *rankObs
	span Span
	once sync.Once
}

func (w *obsWork) Wait() error {
	start := time.Now()
	err := w.Work.Wait()
	w.once.Do(func() {
		w.o.mu.Lock()
		w.o.cur.Exposed += time.Since(start)
		w.o.mu.Unlock()
		w.o.tr.close(w.span)
	})
	return err
}

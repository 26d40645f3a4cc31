package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/fsdp"
)

const (
	// prefixSteps run before the timed window: warm-up, and the steps
	// the ZeRO-3 workload is checked against a DDP reference on.
	prefixSteps = 5
	// An untraced run builds clusters until it has built minSetups and
	// spent setupBudget on it (or built maxSetups), and reports the
	// median set-up time. The last cluster trains.
	minSetups   = 15
	maxSetups   = 200
	setupBudget = 1500 * time.Millisecond
	// minTimedSteps keeps at least ten samples beyond the 90th
	// percentile of the step time.
	minTimedSteps = 100
	// tilingTolerance bounds the share of rank 0's step time that no
	// phase span covers.
	tilingTolerance = 0.05
)

var ckptSeq atomic.Int64

// ckptDir is a fresh checkpoint directory under out for a workload
// that writes checkpoints, or "".
func ckptDir(w *Workload, out string) string {
	if w.CkptEvery == 0 {
		return ""
	}
	return filepath.Join(out, fmt.Sprintf("ckpt-%d-%d", os.Getpid(), ckptSeq.Add(1)))
}

// window is what one cluster's training produced.
type window struct {
	attempted int
	failed    int
	losses    []float64 // mean loss of every step, prefix included
	timed     []time.Duration
	ends      []time.Duration // end of each timed step since the window began
	elapsed   time.Duration   // wall time of the timed steps, back to back
	steps     map[int]bool    // indices of the timed steps
	alloc     uint64          // heap bytes allocated during the timed steps
	gcPause   time.Duration
	gcCycles  uint32
	traffic   [][world]Traffic // per timed step, when traced
	restore   time.Duration    // checkpoint load and apply
	ckptBytes int
	fsdp      [2]fsdp.Stats // rank 0's, before and after the timed steps
}

// train runs the prefix, the timed window of at least budget and
// minSteps steps, and the output checks. It returns the window and the
// first failed check, if any.
func (c *cluster) train(ds data.Dataset, budget time.Duration, minSteps int) (*window, error) {
	win := &window{steps: map[int]bool{}}
	step := func(i int) error {
		win.attempted++
		r := c.runStep(i)
		win.losses = append(win.losses, r.loss)
		if r.err != nil {
			win.failed++
		}
		return r.err
	}
	for i := 0; i < prefixSteps; i++ {
		if err := step(i); err != nil {
			return win, err
		}
	}
	if c.w.Strategy == ZeRO3 {
		if err := c.checkAgainstDDP(ds, prefixSteps); err != nil {
			return win, err
		}
	}
	// One more untimed step, so the timed steps follow a step that
	// itself followed a step (materializing ZeRO-3 parameters above
	// saves the next forward its gathers).
	next := prefixSteps
	if err := step(next); err != nil {
		return win, err
	}
	next++
	for _, rs := range c.ranks {
		if rs.obs != nil {
			rs.obs.take()
		}
	}

	win.fsdp[0] = c.fsdpStats()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for n := 0; n < minSteps || time.Since(start) < budget; n++ {
		r := c.runStep(next)
		win.attempted++
		win.losses = append(win.losses, r.loss)
		win.timed = append(win.timed, r.wall)
		win.ends = append(win.ends, time.Since(start))
		win.steps[next] = true
		if c.tr != nil {
			var t [world]Traffic
			for i, rs := range c.ranks {
				t[i] = rs.obs.take()
			}
			win.traffic = append(win.traffic, t)
		}
		next++
		if r.err != nil {
			win.failed++
			return win, r.err
		}
	}
	win.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	win.alloc = m1.TotalAlloc - m0.TotalAlloc
	win.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	win.gcCycles = m1.NumGC - m0.NumGC
	win.fsdp[1] = c.fsdpStats()

	if err := c.checkReplicas(); err != nil {
		return win, err
	}
	if err := checkLossFell(win.losses); err != nil {
		return win, err
	}
	if c.w.CkptEvery > 0 {
		took, size, err := c.restoreCheck(int64(next))
		if err != nil {
			return win, err
		}
		win.restore, win.ckptBytes = took, size
	}
	return win, nil
}

// throughputBlocks is how many consecutive blocks of timed steps the
// throughput is measured over.
const throughputBlocks = 10

// blockRates is the global samples completed per second in each of
// throughputBlocks consecutive blocks of the timed steps.
func (win *window) blockRates(w *Workload) []float64 {
	per := len(win.timed) / throughputBlocks
	if per == 0 {
		return []float64{float64(len(win.timed)*w.Batch*world) / win.elapsed.Seconds()}
	}
	rates := make([]float64, 0, throughputBlocks)
	for b := 0; b < throughputBlocks; b++ {
		lo, hi := b*per, (b+1)*per
		if b == throughputBlocks-1 {
			hi = len(win.timed)
		}
		rates = append(rates, float64((hi-lo)*w.Batch*world)/(win.ends[hi-1]-win.ends[lo]+win.timed[lo]).Seconds())
	}
	return rates
}

// samplesPerSec is the global samples completed per second over the
// timed steps: the median over consecutive blocks of steps, so that a
// burst of load from outside the benchmark moves it less.
func (win *window) samplesPerSec(w *Workload) float64 {
	rates := win.blockRates(w)
	sort.Float64s(rates)
	return rates[len(rates)/2]
}

// percentile is the nearest-rank p-th percentile of d.
func percentile(d []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*p/100+0.999999) - 1
	return s[max(0, min(idx, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// liveHeap is the heap still in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runEndToEnd is the untraced run: set-up time as the median of several
// cluster builds, then closed-loop training of the last one.
func runEndToEnd(w *Workload, seed int64, budget time.Duration, out string) (*Result, error) {
	res := &Result{Correct: true}
	ds := data.NewSynthetic(seed, w.Samples, w.Features, w.Classes)
	base := liveHeap()

	var setups []time.Duration
	var c *cluster
	start := time.Now()
	for len(setups) < minSetups || (time.Since(start) < setupBudget && len(setups) < maxSetups) {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, err
			}
			c = nil
		}
		runtime.GC()
		var err error
		c, err = newCluster(w, seed, ds, nil, ckptDir(w, out))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, c.setup)
	}
	defer c.close()
	defer os.RemoveAll(c.ckptDir)

	win, err := c.train(ds, budget, minTimedSteps)
	res.Attempted, res.Failed = win.attempted, win.failed
	if err != nil {
		res.fail(err)
	}
	if len(win.timed) == 0 {
		return res, nil
	}
	retained := liveHeap() - base
	p90 := percentile(win.timed, 90)
	res.note("%s seed %d: %d timed steps in %.2f s (closed loop, world %d, batch %d per rank); p90 over %d samples, %d beyond it",
		w.Name, seed, len(win.timed), win.elapsed.Seconds(), world, w.Batch, len(win.timed), len(win.timed)-int(float64(len(win.timed))*0.9))
	res.note("set-up: median of %d builds, from %v to %v", len(setups), percentile(setups, 0), percentile(setups, 100))
	res.note("failed_step_ratio %d/%d", res.Failed, res.Attempted)
	res.note("samples/s by block of timed steps: %.4g", win.blockRates(w))
	res.add("samples_per_s", win.samplesPerSec(w), "1/s")
	res.add("step_ms_p50", ms(percentile(win.timed, 50)), "ms")
	res.add("step_ms_p90", ms(p90), "ms")
	res.add("setup_s", percentile(setups, 50).Seconds(), "s")
	res.add("alloc_mb_per_step", float64(win.alloc)/float64(len(win.timed))/1e6, "MB")
	res.add("retained_heap_mb", float64(retained)/1e6, "MB")
	return res, nil
}

// runLayers is the traced run. It times the single-worker baseline and
// the matmul replay, trains one untraced cluster (the base of the
// tracing overhead and of the Go runtime metrics) and one traced
// cluster, and derives the per-layer metrics from rank 0's spans and
// counters.
func runLayers(w *Workload, seed int64, budget time.Duration, out string) (*Result, error) {
	res := &Result{Correct: true}
	ds := data.NewSynthetic(seed, w.Samples, w.Features, w.Classes)

	base, err := runBaseline(w, seed, ds, budget*15/100)
	if err != nil {
		return nil, err
	}
	mm := replayMatMuls(w, seed, budget*10/100)

	plain, err := newCluster(w, seed, ds, nil, ckptDir(w, out))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	pwin, err := plain.train(ds, budget*30/100, 20)
	res.Attempted, res.Failed = pwin.attempted, pwin.failed
	os.RemoveAll(plain.ckptDir)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		res.fail(err)
		return res, nil
	}

	tr := newTracer()
	c, err := newCluster(w, seed, ds, tr, ckptDir(w, out))
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer c.close()
	defer os.RemoveAll(c.ckptDir)
	win, err := c.train(ds, budget*45/100, 20)
	res.Attempted += win.attempted
	res.Failed += win.failed
	if err != nil {
		res.fail(err)
		return res, nil
	}
	stats0, stats1 := win.fsdp[0], win.fsdp[1]

	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
	if err := tr.WriteFile(path); err != nil {
		return nil, err
	}
	assign := c.assignment()
	if err := checkTraffic(w.Strategy, assign, w.frameHeader(), win.traffic); err != nil {
		res.fail(fmt.Errorf("traffic: %w", err))
	} else {
		res.note("traffic of every traced step equals the analytic ring schedule on both ranks; rank 0: %v", expectedTraffic(w.Strategy, assign, 0, w.frameHeader()))
	}
	sp := summarizeSpans(tr.Spans(), 0, win.steps)
	unaccounted := float64(sp.self["step"]) / float64(sp.total["step"])
	if !(unaccounted <= tilingTolerance) {
		res.fail(fmt.Errorf("phase spans leave %.1f%% of rank 0's step time uncovered (tolerance %.0f%%)", 100*unaccounted, 100*tilingTolerance))
	}

	steps := float64(len(win.timed))
	var traffic Traffic
	for _, t := range win.traffic {
		traffic.add(t[0])
	}
	per := func(n int64) float64 { return float64(n) / steps }
	perD := func(d time.Duration) float64 { return ms(d) / steps }

	res.note("%s seed %d: traced %d steps, untraced %d; spans written to %s", w.Name, seed, len(win.timed), len(pwin.timed), path)
	res.note("rank 0 self time per step by span (ms):")
	names := make([]string, 0, len(sp.self))
	for n := range sp.self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.note("  %-24s self %8.3f  total %8.3f  calls %d", n, ms(sp.self[n])/steps, ms(sp.total[n])/steps, sp.count[n])
	}

	res.add("tensor.matmul_ms_per_step", ms(mm.perStep), "ms")
	res.add("tensor.matmul_gflops", mm.gflops, "GFLOP/s")
	res.add("autograd.forward_ms", ms(base.forward), "ms")
	res.add("autograd.backward_ms", ms(base.backward), "ms")
	res.add("autograd.optim_ms", ms(base.optim), "ms")

	ddpFwd, ddpBwd, ddpOver := 0.0, 0.0, 0.0
	fsdpFwd, fsdpBwd := 0.0, 0.0
	if w.Strategy == DDP {
		ddpFwd, ddpBwd = ms(sp.mean("ddp.forward")), ms(sp.mean("ddp.backward"))
		ddpOver = ddpBwd - ms(base.backward)
	} else {
		fsdpFwd, fsdpBwd = ms(sp.mean("fsdp.forward")), ms(sp.mean("fsdp.backward"))
	}
	res.add("ddp.forward_ms", ddpFwd, "ms")
	res.add("ddp.backward_ms", ddpBwd, "ms")
	res.add("ddp.overhead_ms", ddpOver, "ms")

	maxBucket := 0
	for _, n := range assign.BucketElems {
		maxBucket = max(maxBucket, 4*n)
	}
	res.add("reduce.buckets", float64(assign.NumBuckets()), "count")
	res.add("reduce.bucket_bytes_max", float64(maxBucket), "B")

	res.add("fsdp.forward_ms", fsdpFwd, "ms")
	res.add("fsdp.backward_ms", fsdpBwd, "ms")
	res.add("fsdp.gathers_per_step", float64(stats1.Gathers-stats0.Gathers)/steps, "count")
	res.add("fsdp.reduces_per_step", float64(stats1.Reduces-stats0.Reduces)/steps, "count")
	res.add("fsdp.peak_param_bytes", float64(stats1.PeakParamBytes), "B")
	res.add("fsdp.state_bytes", float64(stats1.ShardParamBytes+stats1.OptimizerBytes), "B")

	res.add("optim.step_ms", ms(sp.mean("optim.step")), "ms")
	res.add("optim.zero_grad_ms", ms(sp.mean("optim.zero_grad")), "ms")

	res.add("comm.calls_per_step", float64(traffic.TotalCalls())/steps, "count")
	for _, op := range []int{opAllReduce, opAllGatherV, opReduceScatterV} {
		res.add("comm.calls_per_step."+opNames[op], float64(traffic.Calls[op])/steps, "count")
	}
	res.add("comm.bytes_per_step", per(traffic.CommBytes), "B")
	res.add("comm.exposed_ms_per_step", perD(traffic.Exposed), "ms")
	overlap := 0.0
	if traffic.Busy > 0 {
		overlap = 1 - float64(traffic.Exposed)/float64(traffic.Busy)
	}
	res.add("comm.overlap_ratio", overlap, "ratio")

	res.add("transport.frames_per_step", float64(traffic.Frames)/steps, "count")
	res.add("transport.bytes_per_step", per(traffic.Wire), "B")
	res.add("transport.send_ms_per_step", perD(traffic.Send), "ms")
	res.add("transport.recv_wait_ms_per_step", perD(traffic.Recv), "ms")

	res.add("data.next_ms", ms(sp.mean("data.next")), "ms")

	res.add("ckpt.capture_ms", ms(sp.mean("ckpt.capture")), "ms")
	res.add("ckpt.submit_stall_ms", ms(sp.mean("ckpt.submit")), "ms")
	res.add("ckpt.bytes_per_save", float64(win.ckptBytes), "B")
	res.add("ckpt.restore_ms", ms(win.restore), "ms")

	psteps := float64(len(pwin.timed))
	res.add("runtime.gc_pause_ms_per_step", ms(pwin.gcPause)/psteps, "ms")
	res.add("runtime.gc_cycles_per_step", float64(pwin.gcCycles)/psteps, "count")

	res.add("trace.overhead_ratio", win.samplesPerSec(w)/pwin.samplesPerSec(w), "ratio")
	res.add("trace.step_ms", ms(sp.mean("step")), "ms")
	res.add("trace.unaccounted_ratio", unaccounted, "ratio")
	return res, nil
}

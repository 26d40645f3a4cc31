package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
)

// trainSteps builds a cluster of w, traced or not, and trains it for
// steps closed-loop steps. It returns the cluster (closed by the test's
// cleanup) and, when traced, each step's traffic after the first.
func trainSteps(t *testing.T, w *Workload, seed int64, traced bool, steps int) (*cluster, [][world]Traffic) {
	t.Helper()
	ds := data.NewSynthetic(seed, w.Samples, w.Features, w.Classes)
	var tr *Tracer
	if traced {
		tr = newTracer()
	}
	c, err := newCluster(w, seed, ds, tr, ckptDir(w, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.close(); err != nil {
			t.Error(err)
		}
	})
	var perStep [][world]Traffic
	for i := 0; i < steps; i++ {
		if r := c.runStep(i); r.err != nil {
			t.Fatalf("step %d: %v", i, r.err)
		}
		if traced {
			var s [world]Traffic
			for r, rs := range c.ranks {
				s[r] = rs.obs.take()
			}
			if i > 0 { // the first step also carries the set-up broadcasts
				perStep = append(perStep, s)
			}
		}
	}
	return c, perStep
}

// The observation wrappers must not change what the program computes:
// a traced run's parameters equal an untraced run's bitwise, on every
// workload's model, wrapper and transport.
func TestWrappersDoNotChangeTraining(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			steps := max(3, w.CkptEvery) // include one checkpoint
			plain, _ := trainSteps(t, w, 3, false, steps)
			traced, _ := trainSteps(t, w, 3, true, steps)
			for _, c := range []*cluster{plain, traced} {
				if err := c.checkReplicas(); err != nil {
					t.Fatal(err)
				}
			}
			if err := compareParams("traced vs untraced", traced.ranks[0].model, plain.ranks[0].model); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The measured traffic of a step is a property of the model and the
// schedule alone: it repeats exactly across steps, runs and seeds, and
// equals the analytic ring traffic.
func TestTrafficRepeatsAndMatchesAnalytic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var first Traffic
			for _, seed := range []int64{1, 2} {
				c, perStep := trainSteps(t, w, seed, true, 4)
				if err := checkTraffic(w.Strategy, c.assignment(), w.frameHeader(), perStep); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if seed == 1 {
					first = perStep[0][0].counts()
				} else if got := perStep[0][0].counts(); got != first {
					t.Fatalf("seed 2 moved %v, seed 1 %v", got, first)
				}
			}
		})
	}
}

// At world 2 a ring AllReduce sends one buffer's worth per rank, an
// AllGatherV the rank's own half, and a ReduceScatterV a full buffer
// (its reduce-scatter half plus the rotation hop to the owner).
func TestRingSendsAtWorld2(t *testing.T) {
	const n = 1001 // odd: chunk 0 has 501 elements, chunk 1 has 500
	for rank, own := range []int{501, 500} {
		if e, f := allReduceSends(n, 2, rank); e != n || f != 2 {
			t.Errorf("rank %d AllReduce: %d elements in %d frames, want %d in 2", rank, e, f, n)
		}
		if e, f := allGatherVSends(n, 2, rank); e != own || f != 1 {
			t.Errorf("rank %d AllGatherV: %d elements in %d frames, want %d in 1", rank, e, f, own)
		}
		if e, f := reduceScatterVSends(n, 2, rank); e != n || f != 2 {
			t.Errorf("rank %d ReduceScatterV: %d elements in %d frames, want %d in 2", rank, e, f, n)
		}
	}
	if lo, hi := comm.ChunkBounds(n, 2, 0); hi-lo != 501 {
		t.Fatalf("chunk 0 has %d elements", hi-lo)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 1, Name: "transport.send", Start: 60, End: 90},
		{ID: 5, Parent: 2, Name: "c", Start: 0, End: 20}, // starts before its parent
	}
	st := summarizeSpans(spans, 0, map[int]bool{0: true})
	if got := st.self["step"]; got != 50 { // 100 - [10,60)
		t.Errorf("step self time %d, want 50", got)
	}
	if got := st.self["a"]; got != 20 { // 30 - [10,20)
		t.Errorf("a self time %d, want 20", got)
	}
	if got := st.total["transport.send"]; got != 30 {
		t.Errorf("transport.send total %d, want 30", got)
	}
}

// Each mode reports exactly the metrics BENCHMARK.json lists for it,
// with the listed units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("ddp-transformer-inproc")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		want []metric
		run  func(*Workload, int64, time.Duration, string) (*Result, error)
	}{
		{"untraced", spec.EndToEnd, runEndToEnd},
		{"traced", spec.PerLayer, runLayers},
	} {
		res, err := mode.run(w, 1, 100*time.Millisecond, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s run failed its checks: %v", mode.name, res.Notes)
		}
		got := map[metric]bool{}
		for _, m := range res.Metrics {
			got[metric{m.Name, m.Unit}] = true
		}
		for _, m := range mode.want {
			if !got[m] {
				t.Errorf("%s run does not report %s in %s", mode.name, m.Name, m.Unit)
			}
			delete(got, m)
		}
		for m := range got {
			t.Errorf("%s run reports %s, which BENCHMARK.json does not list", mode.name, m.Name)
		}
	}
}

package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/autograd"
	"repro/internal/data"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// baseline is the single-worker reference: the workload's model trained
// with plain autograd and SGD at the same per-rank batch, with no
// wrapper and no group.
type baseline struct {
	forward, backward, optim time.Duration // means per step
	steps                    int
}

func runBaseline(w *Workload, seed int64, ds data.Dataset, budget time.Duration) (baseline, error) {
	model := w.Model(modelSeed(seed))
	opt := optim.NewSGD(model.Parameters(), w.LR)
	opt.Momentum = w.Momentum
	sampler, err := data.NewDistributedSampler(ds.Len(), 0, 1)
	if err != nil {
		return baseline{}, err
	}
	loader, err := data.NewLoader(ds, sampler, w.Batch)
	if err != nil {
		return baseline{}, err
	}
	const warm = 3
	var b baseline
	var epoch int64
	start := time.Now()
	for i := 0; i < warm+10 || time.Since(start) < budget; i++ {
		x, labels, ok := loader.Next()
		if !ok {
			epoch++
			loader.Reset(epoch)
			x, labels, _ = loader.Next()
		}
		t0 := time.Now()
		loss := autograd.CrossEntropyLoss(model.Forward(autograd.Constant(x)), labels)
		t1 := time.Now()
		autograd.Backward(loss, nil)
		t2 := time.Now()
		opt.Step()
		opt.ZeroGrad()
		t3 := time.Now()
		if i >= warm {
			b.forward += t1.Sub(t0)
			b.backward += t2.Sub(t1)
			b.optim += t3.Sub(t2)
			b.steps++
		}
	}
	n := time.Duration(b.steps)
	b.forward, b.backward, b.optim = b.forward/n, b.backward/n, b.optim/n
	return b, nil
}

// matmulReplay times the workload's per-step matrix products at the
// tensor package's public entry points, on random operands of the same
// shapes. It reports the median time of one step's worth of products
// and the rate they ran at.
type matmulReplay struct {
	perStep time.Duration
	gflops  float64
}

func replayMatMuls(w *Workload, seed int64, budget time.Duration) matmulReplay {
	rng := rand.New(rand.NewSource(seed))
	type operands struct{ a, b *tensor.Tensor }
	ops := make([]operands, len(w.MatMuls))
	flops := 0.0
	for i, s := range w.MatMuls {
		switch s.Kind {
		case kindMatMul:
			ops[i] = operands{tensor.RandN(rng, 1, s.M, s.K), tensor.RandN(rng, 1, s.K, s.N)}
		case kindTransA:
			ops[i] = operands{tensor.RandN(rng, 1, s.K, s.M), tensor.RandN(rng, 1, s.K, s.N)}
		case kindTransB:
			ops[i] = operands{tensor.RandN(rng, 1, s.M, s.K), tensor.RandN(rng, 1, s.N, s.K)}
		}
		flops += s.FLOPs()
	}
	var rounds []time.Duration
	start := time.Now()
	for len(rounds) < 10 || time.Since(start) < budget {
		var round time.Duration
		for i, s := range w.MatMuls {
			t0 := time.Now()
			switch s.Kind {
			case kindMatMul:
				tensor.MatMul(ops[i].a, ops[i].b)
			case kindTransA:
				tensor.MatMulTransA(ops[i].a, ops[i].b)
			case kindTransB:
				tensor.MatMulTransB(ops[i].a, ops[i].b)
			}
			round += time.Since(t0)
		}
		rounds = append(rounds, round)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	med := rounds[len(rounds)/2]
	return matmulReplay{perStep: med, gflops: flops / med.Seconds() / 1e9}
}

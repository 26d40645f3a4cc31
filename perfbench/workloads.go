package main

import (
	"fmt"
	"math/rand"

	"repro/internal/models"
	"repro/internal/nn"
)

// world is the number of ranks every workload trains with. Ranks are
// goroutines of this process, so a TCP workload opens exactly one
// loopback connection pair.
const world = 2

// Strategy names the data-parallel wrapper a workload trains with.
type Strategy string

const (
	// DDP is replicated data parallelism (internal/ddp) with optim.SGD.
	DDP Strategy = "ddp"
	// ZeRO3 is fully sharded data parallelism (internal/fsdp, ZeRO-3)
	// with its fused sharded momentum-SGD step.
	ZeRO3 Strategy = "zero3"
)

// Workload is one benchmark input: a model, its synthetic data, the
// transport and the wrapper it is trained with.
type Workload struct {
	Name     string
	Strategy Strategy
	TCP      bool // transport.NewTCPMesh over loopback; otherwise in-process
	// Batch is the per-rank batch. For the transformer a batch row is a
	// token, so Batch is the tokens per rank.
	Batch    int
	Features int
	Classes  int
	Samples  int // dataset size
	CapBytes int // bucket cap of the reduce engine
	LR       float32
	Momentum float32
	// CkptEvery > 0 captures and submits a checkpoint every CkptEvery
	// steps of the timed window.
	CkptEvery int
	Model     func(seed int64) nn.Module
	// MatMuls lists the tensor.MatMul* calls one rank issues per step
	// (forward and backward), replayed by the tensor layer metrics.
	MatMuls []MatMulShape
}

// frameHeader is the bytes the transport adds to every frame: the TCP
// wire format's [tag uint64][count uint32]; in-process frames carry
// none.
func (w *Workload) frameHeader() int {
	if w.TCP {
		return 12
	}
	return 0
}

// MatMulKind names the tensor entry point a MatMulShape replays.
type MatMulKind int

const (
	kindMatMul MatMulKind = iota // tensor.MatMul: a[m,k]·b[k,n]
	kindTransA                   // tensor.MatMulTransA: aᵀ·b with a[k,m], b[k,n]
	kindTransB                   // tensor.MatMulTransB: a·bᵀ with a[m,k], b[n,k]
)

// MatMulShape is one matrix product of output [M,N] over inner size K.
type MatMulShape struct {
	Kind    MatMulKind
	M, K, N int
}

// FLOPs is the multiply-add count of the product, times two.
func (s MatMulShape) FLOPs() float64 { return 2 * float64(s.M) * float64(s.K) * float64(s.N) }

// linearMatMuls is what nn.Linear(in, out) issues at batch b: the
// forward x·W, and the backward g·Wᵀ (input gradient, computed even
// for the first layer) and xᵀ·g (weight gradient).
func linearMatMuls(b, in, out int) []MatMulShape {
	return []MatMulShape{
		{kindMatMul, b, in, out},
		{kindTransB, b, out, in},
		{kindTransA, in, b, out},
	}
}

// attentionHeadMatMuls is what one attention head of width d over t
// tokens issues: scores q·kᵀ, the weighted sum P·v, and their
// backward products.
func attentionHeadMatMuls(t, d int) []MatMulShape {
	return []MatMulShape{
		{kindTransB, t, d, t}, // q·kᵀ
		{kindMatMul, t, t, d}, // dq = g·k
		{kindTransA, t, t, d}, // dk = gᵀ·q
		{kindMatMul, t, t, d}, // P·v
		{kindTransB, t, d, t}, // dP = g·vᵀ
		{kindTransA, t, t, d}, // dv = Pᵀ·g
	}
}

const (
	mlpWidth  = 512
	mlpLayers = 8
	mlpBatch  = 2
	// mlpBucketCap is one layer's gradient, weight and bias: each
	// layer gets its own bucket, which can overlap the rest of
	// backward. A cap of exactly 1 MiB would split every layer into a
	// 1 MiB weight bucket and a 2 KiB bias bucket.
	mlpBucketCap = 4 * (mlpWidth*mlpWidth + mlpWidth)

	tfDim    = 64
	tfHeads  = 4
	tfFF     = 256
	tfLayers = 2
	tfTokens = 64
)

// newDeepMLP is the 8-layer width-512 ReLU MLP of the MLP workloads:
// about 2.1M parameters, 8.4 MB of gradients per step.
func newDeepMLP(seed int64) nn.Module {
	rng := rand.New(rand.NewSource(seed))
	seq := nn.NewSequential()
	for l := 0; l < mlpLayers; l++ {
		if l > 0 {
			seq.Append(nn.ReLU{})
		}
		seq.Append(nn.NewLinear(rng, fmt.Sprintf("fc%d", l), mlpWidth, mlpWidth))
	}
	return seq
}

func mlpMatMuls() []MatMulShape {
	var out []MatMulShape
	for l := 0; l < mlpLayers; l++ {
		out = append(out, linearMatMuls(mlpBatch, mlpWidth, mlpWidth)...)
	}
	return out
}

func transformerMatMuls() []MatMulShape {
	var out []MatMulShape
	for l := 0; l < tfLayers; l++ {
		for p := 0; p < 4; p++ { // query, key, value, output projections
			out = append(out, linearMatMuls(tfTokens, tfDim, tfDim)...)
		}
		for h := 0; h < tfHeads; h++ {
			out = append(out, attentionHeadMatMuls(tfTokens, tfDim/tfHeads)...)
		}
		out = append(out, linearMatMuls(tfTokens, tfDim, tfFF)...)
		out = append(out, linearMatMuls(tfTokens, tfFF, tfDim)...)
	}
	return out
}

// workloads is the benchmark's workload table, in BENCHMARK.json order.
var workloads = []*Workload{
	{
		Name:     "ddp-transformer-inproc",
		Strategy: DDP, Batch: tfTokens, Features: tfDim, Classes: 16, Samples: 4096,
		CapBytes: 64 << 10, LR: 0.02, Momentum: 0.9,
		Model: func(seed int64) nn.Module {
			return models.NewTinyTransformer(seed, tfDim, tfHeads, tfFF, tfLayers)
		},
		MatMuls: transformerMatMuls(),
	},
	{
		Name:     "ddp-mlp-tcp",
		Strategy: DDP, TCP: true, Batch: mlpBatch, Features: mlpWidth, Classes: 16, Samples: 1024,
		CapBytes: mlpBucketCap, LR: 0.01, Momentum: 0.9,
		Model: newDeepMLP, MatMuls: mlpMatMuls(),
	},
	{
		Name:     "zero3-mlp-inproc",
		Strategy: ZeRO3, Batch: mlpBatch, Features: mlpWidth, Classes: 16, Samples: 1024,
		CapBytes: mlpBucketCap, LR: 0.01, Momentum: 0.9,
		Model: newDeepMLP, MatMuls: mlpMatMuls(),
	},
	{
		Name:     "ddp-ckpt-inproc",
		Strategy: DDP, Batch: mlpBatch, Features: mlpWidth, Classes: 16, Samples: 1024,
		CapBytes: mlpBucketCap, LR: 0.01, Momentum: 0.9, CkptEvery: 4,
		Model: newDeepMLP, MatMuls: mlpMatMuls(),
	},
}

func findWorkload(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

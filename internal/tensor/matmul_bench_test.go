package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchShape is one product of output [m,n] over inner size k, named by
// the model family it comes from. sparse zeroes half of a's entries, as
// a ReLU does to the activations the MLP's products read.
type benchShape struct {
	family  string
	m, k, n int
	sparse  bool
}

func (s benchShape) name() string {
	name := fmt.Sprintf("%s/m%d_k%d_n%d", s.family, s.m, s.k, s.n)
	if s.sparse {
		return name + "_sparse50"
	}
	return name
}

// The transformer shapes are those of a 64-token, width-64, 4-head,
// ff-256 block (its projections, feed-forward and 64×16 attention
// products); the MLP shapes are batch 2 through width-512 layers.
var (
	benchMatMulShapes = []benchShape{
		{"tf", 64, 64, 64, false},
		{"tf", 64, 64, 256, false},
		{"tf", 64, 256, 64, false},
		{"tf", 64, 64, 16, false},
		{"mlp", 2, 512, 512, false},
		{"mlp", 2, 512, 512, true},
	}
	benchTransAShapes = []benchShape{
		{"tf", 64, 64, 64, false},
		{"tf", 64, 64, 256, false},
		{"tf", 256, 64, 64, false},
		{"tf", 64, 64, 16, false},
		{"mlp", 512, 2, 512, false},
		{"mlp", 512, 2, 512, true},
	}
	benchTransBShapes = []benchShape{
		{"tf", 64, 64, 64, false},
		{"tf", 64, 256, 64, false},
		{"tf", 64, 64, 256, false},
		{"tf", 64, 16, 64, false},
		{"mlp", 2, 512, 512, false},
		{"mlp", 2, 512, 512, true},
	}
)

// benchKernel times kind's kernel on random operands of each shape and
// reports its rate in GFLOP/s (2·m·k·n per product).
func benchKernel(b *testing.B, kind matmulKind, shapes []benchShape) {
	for _, s := range shapes {
		b.Run(s.name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := RandN(rng, 1, kind.aShape(s.m, s.k, s.n)...)
			if s.sparse {
				for i := range a.data {
					if rng.Intn(2) == 0 {
						a.data[i] = 0
					}
				}
			}
			bt := RandN(rng, 1, kind.bShape(s.m, s.k, s.n)...)
			for b.Loop() {
				kind.kernel(a, bt)
			}
			b.ReportMetric(2*float64(s.m*s.k*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkMatMul(b *testing.B)       { benchKernel(b, kindMatMul, benchMatMulShapes) }
func BenchmarkMatMulTransA(b *testing.B) { benchKernel(b, kindTransA, benchTransAShapes) }
func BenchmarkMatMulTransB(b *testing.B) { benchKernel(b, kindTransB, benchTransBShapes) }

package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The three functions below are verbatim copies of the plain triple-loop
// kernels the blocked ones replaced. They pin the blocked kernels to the
// old results bit for bit, and are test oracles only.
//
// They write x*y+z without a float32 conversion, so they round the
// product on its own only where the compiler does not fuse the two into
// a multiply-add. Go does not on amd64 (at any GOAMD64 level; CI reruns
// this comparison with GOAMD64=v3 to check the copies stay separately
// rounded there) or 386; it may on arm64, ppc64x, s390x and riscv64,
// where the copies are not compared. contractOracle below states the
// kernel contract directly and is compared on every GOARCH.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
	return out
}

// contractOracle computes each element of the [m,n] product from the
// kernel contract alone: a float32 sum from +0 over p ascending of
// float32(a·b), each product rounded by its explicit conversion, which
// the Go spec forbids fusing on any GOARCH, and no product for a zero a
// entry when kind skips them.
func contractOracle(kind matmulKind, a, b *Tensor, m, k, n int) *Tensor {
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				av := kind.aAt(a, i, p)
				if kind.skipZeroA && av == 0 {
					continue
				}
				s += float32(av * kind.bAt(b, p, j))
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

// matmulKind pairs a kernel with its old-loop oracle, the operand shapes
// it takes for an [m,n] output over inner size k, and the a and b
// entries the product of output (i, j) reads at inner index p.
type matmulKind struct {
	name           string
	kernel, oracle func(a, b *Tensor) *Tensor
	aShape, bShape func(m, k, n int) []int
	aAt            func(a *Tensor, i, p int) float32
	bAt            func(b *Tensor, p, j int) float32
	skipZeroA      bool
}

var (
	kindMatMul = matmulKind{"MatMul", MatMul, refMatMul,
		func(m, k, n int) []int { return []int{m, k} },
		func(m, k, n int) []int { return []int{k, n} },
		func(a *Tensor, i, p int) float32 { return a.data[i*a.shape[1]+p] },
		func(b *Tensor, p, j int) float32 { return b.data[p*b.shape[1]+j] },
		true}
	kindTransA = matmulKind{"MatMulTransA", MatMulTransA, refMatMulTransA,
		func(m, k, n int) []int { return []int{k, m} },
		func(m, k, n int) []int { return []int{k, n} },
		func(a *Tensor, i, p int) float32 { return a.data[p*a.shape[1]+i] },
		func(b *Tensor, p, j int) float32 { return b.data[p*b.shape[1]+j] },
		true}
	kindTransB = matmulKind{"MatMulTransB", MatMulTransB, refMatMulTransB,
		func(m, k, n int) []int { return []int{m, k} },
		func(m, k, n int) []int { return []int{n, k} },
		func(a *Tensor, i, p int) float32 { return a.data[i*a.shape[1]+p] },
		func(b *Tensor, p, j int) float32 { return b.data[j*b.shape[1]+p] },
		false}
	matmulKinds = []matmulKind{kindMatMul, kindTransA, kindTransB}
)

// oldLoopsUnfused reports whether the verbatim old loops round every
// product on their own on this GOARCH, so the kernels must match them.
var oldLoopsUnfused = runtime.GOARCH == "amd64" || runtime.GOARCH == "386"

// fillOperand draws each entry as ±0 with probability zeros, otherwise
// as a signed magnitude spread log-uniformly over [1e-3, 1e3]; with
// probability special it is +Inf, -Inf or NaN instead.
func fillOperand(rng *rand.Rand, t *Tensor, zeros, special float64) {
	for i := range t.data {
		switch u := rng.Float64(); {
		case u < special:
			t.data[i] = [...]float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[rng.Intn(3)]
		case u < special+zeros:
			t.data[i] = float32(math.Copysign(0, rng.Float64()-0.5))
		default:
			v := float32(math.Pow(10, rng.Float64()*6-3))
			if rng.Intn(2) == 0 {
				v = -v
			}
			t.data[i] = v
		}
	}
}

// bitwiseEqual reports whether got and want hold the same bits in every
// element, treating any NaN as equal to any other NaN.
func bitwiseEqual(got, want *Tensor) (int, bool) {
	for i, w := range want.data {
		g := got.data[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			return i, false
		}
	}
	return 0, true
}

func TestMatMulKernelsMatchOracleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 23, 31, 32, 33, 40}
	ks := []int{1, 2, 3, 4, 5, 7, 16, 63, 64, 65, 128, 129, 255, 256, 257, 300, 511, 512, 513, 600}
	type mix struct {
		name           string
		zeros, special float64
	}
	mixes := []mix{
		{"dense", 0, 0},
		{"zeros50", 0.5, 0},
		{"zeros95", 0.95, 0},
		{"allzero", 1, 0},
		{"special", 0.3, 0.02},
	}
	for _, kind := range matmulKinds {
		for trial := 0; trial < 60; trial++ {
			m, n := dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))]
			k := ks[rng.Intn(len(ks))]
			if trial%4 == 3 {
				k = 1 + rng.Intn(600)
			}
			for _, mx := range mixes {
				a, b := New(kind.aShape(m, k, n)...), New(kind.bShape(m, k, n)...)
				fillOperand(rng, a, mx.zeros, mx.special)
				// Zeros in b too, so products of finite a entries with
				// ±0 produce signed zeros.
				fillOperand(rng, b, mx.zeros/2, mx.special)
				got := kind.kernel(a, b)
				check := func(oracle string, want *Tensor) {
					t.Helper()
					if !got.SameShape(want) {
						t.Fatalf("%s m=%d k=%d n=%d %s: shape %v, %s oracle %v", kind.name, m, k, n, mx.name, got.Shape(), oracle, want.Shape())
					}
					if i, ok := bitwiseEqual(got, want); !ok {
						t.Fatalf("%s m=%d k=%d n=%d %s: element %d = %v (%#x), %s oracle %v (%#x)",
							kind.name, m, k, n, mx.name, i, got.data[i], math.Float32bits(got.data[i]),
							oracle, want.data[i], math.Float32bits(want.data[i]))
					}
				}
				check("contract", contractOracle(kind, a, b, m, k, n))
				if oldLoopsUnfused {
					check("old-loop", kind.oracle(a, b))
				}
			}
		}
	}
}

// TestMatMulZeroSkipHidesNonFinite pins the zero-skip: a zero a entry
// adds no product, so an Inf or NaN in the b row it would scale does not
// reach the output, and an output no product reaches is +0.
func TestMatMulZeroSkipHidesNonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	a := FromSlice([]float32{0, 2, float32(math.Copysign(0, -1)), 0}, 2, 2)
	b := FromSlice([]float32{inf, float32(math.NaN()), 3, -4}, 2, 2)
	want := []float32{6, -8, 0, 0}
	for _, got := range []*Tensor{MatMul(a, b), MatMulTransA(Transpose2D(a), b)} {
		for i, w := range want {
			if math.Float32bits(got.data[i]) != math.Float32bits(w) {
				t.Fatalf("element %d = %v, want %v (bits %#x vs %#x)", i, got.data[i], w, math.Float32bits(got.data[i]), math.Float32bits(w))
			}
		}
	}
}

func TestMatMulKernelsAllocateOnlyOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range matmulKinds {
		for _, s := range [][3]int{{64, 64, 64}, {2, 600, 33}, {7, 2, 512}} {
			m, k, n := s[0], s[1], s[2]
			a := RandN(rng, 1, kind.aShape(m, k, n)...)
			b := RandN(rng, 1, kind.bShape(m, k, n)...)
			want := testing.AllocsPerRun(20, func() { _ = New(m, n) })
			got := testing.AllocsPerRun(20, func() { _ = kind.kernel(a, b) })
			if got != want {
				t.Errorf("%s %v: %v allocs per call, New(%d, %d) makes %v", kind.name, s, got, m, n, want)
			}
		}
	}
}

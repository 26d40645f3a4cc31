package tensor

import (
	"fmt"
	"unsafe"
)

// The three matrix products below keep the fixed per-element arithmetic
// the package doc states. Blocking only changes which output elements
// are computed together, so results are bitwise those of plain triple
// loops that round every product on its own. That is how Go compiles
// such loops on amd64 and 386 even without the float32 conversion; on
// targets whose compiler fuses an unconverted x*y+z (arm64, ppc64x,
// s390x, riscv64) such a loop may differ from these kernels.

// gatherChunk bounds the (offset, value) list of one output row's
// nonzero a entries, gathered on the stack before the row's columns are
// accumulated over it. Each pass over the list reads a few floats from
// every listed row of b: 64 rows measured faster than 256 for a wide b
// (512 columns, where 256 rows span 512 KiB) and no slower for narrow b.
const gatherChunk = 64

// gatherMinK is the inner size below which MatMulTransA adds each a
// entry's scaled b row straight into the output (axpy) rather than
// gathering a's columns: with fewer than four products per output
// element, there is too little to hold in registers to repay the gather.
const gatherMinK = 4

// MatMul returns the matrix product of a [m,k] and b [k,n] as [m,n].
func MatMul(a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 || a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v x %v invalid", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	var g gather
	for i := 0; i < m; i++ {
		g.mulRow(out.data[i*n:(i+1)*n], a.data, i*k, 1, k, b.data)
	}
	return out
}

// MatMulTransA returns aᵀ·b for a [k,m] and b [k,n] as [m,n], without
// materializing the transpose. Used in linear-layer weight gradients.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %v x %v invalid", a.shape, b.shape))
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	if k < gatherMinK {
		return matMulTransAAxpy(a, b)
	}
	out := New(m, n)
	var g gather
	for i := 0; i < m; i++ {
		g.mulRow(out.data[i*n:(i+1)*n], a.data, i, m, k, b.data)
	}
	return out
}

// matMulTransAAxpy is MatMulTransA for small k: for each p in turn,
// every nonzero a[p,i] adds its multiple of b row p into output row i.
func matMulTransAAxpy(a, b *Tensor) *Tensor {
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
				orow[j] += float32(av * brow[j])
			}
		}
	}
	return out
}

// gather holds one output row's nonzero a entries, up to gatherChunk at
// a time, each with the offset of the b row it scales.
type gather struct {
	offs [gatherChunk]int
	vals [gatherChunk]float32
}

// mulRow adds a[base+p·stride]·b[p,:] into orow for p = 0..k-1 in
// order, skipping zero a entries: the k entries are a row of a for
// MatMul (stride 1) and a column for MatMulTransA (stride m).
func (g *gather) mulRow(orow, a []float32, base, stride, k int, b []float32) {
	n := len(orow)
	for p0 := 0; p0 < k; p0 += gatherChunk {
		cnt := 0
		for p := p0; p < min(p0+gatherChunk, k); p++ {
			if av := a[base+p*stride]; av != 0 {
				g.offs[cnt] = p * n
				g.vals[cnt] = av
				cnt++
			}
		}
		accumRow(orow, b, g.offs[:cnt], g.vals[:cnt])
	}
}

// accumRow adds vals[t]·b[offs[t]+j] into orow[j] for t ascending, for
// every column j, holding 8 columns (then the rest one at a time) in
// registers across the whole list. Every offs[t] is p·len(orow) for a
// row p of b, so offs[t]+j < len(b) for every column j; b is read
// through unsafe pointers on that invariant, without bounds checks.
func accumRow(orow, b []float32, offs []int, vals []float32) {
	if len(offs) == 0 {
		return
	}
	vals = vals[:len(offs)]
	base := unsafe.Pointer(unsafe.SliceData(b))
	n := len(orow)
	j := 0
	for ; j+8 <= n; j += 8 {
		o := (*[8]float32)(orow[j : j+8])
		c0, c1, c2, c3, c4, c5, c6, c7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
		for t, off := range offs {
			av := vals[t]
			bb := (*[8]float32)(unsafe.Add(base, 4*(off+j)))
			c0 += float32(av * bb[0])
			c1 += float32(av * bb[1])
			c2 += float32(av * bb[2])
			c3 += float32(av * bb[3])
			c4 += float32(av * bb[4])
			c5 += float32(av * bb[5])
			c6 += float32(av * bb[6])
			c7 += float32(av * bb[7])
		}
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
	for ; j < n; j++ {
		c := orow[j]
		for t, off := range offs {
			c += float32(vals[t] * *(*float32)(unsafe.Add(base, 4*(off+j))))
		}
		orow[j] = c
	}
}

// MatMulTransB returns a·bᵀ for a [m,k] and b [n,k] as [m,n], without
// materializing the transpose. Used in linear-layer input gradients.
// Each a row is dotted with four b rows at once, in four independent
// accumulators.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes %v x %v invalid", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.data[j*k : (j+1)*k][:len(arow)]
			b1 := b.data[(j+1)*k : (j+2)*k][:len(arow)]
			b2 := b.data[(j+2)*k : (j+3)*k][:len(arow)]
			b3 := b.data[(j+3)*k : (j+4)*k][:len(arow)]
			var s0, s1, s2, s3 float32
			for p, x := range arow {
				s0 += float32(x * b0[p])
				s1 += float32(x * b1[p])
				s2 += float32(x * b2[p])
				s3 += float32(x * b3[p])
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.data[j*k : (j+1)*k][:len(arow)]
			var s float32
			for p, x := range arow {
				s += float32(x * brow[p])
			}
			orow[j] = s
		}
	}
	return out
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Dim() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D on shape %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// Dot returns the inner product of two equally-sized tensors.
func Dot(a, b *Tensor) float32 {
	if len(a.data) != len(b.data) {
		panic("tensor: Dot size mismatch")
	}
	var s float32
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s
}

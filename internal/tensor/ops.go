package tensor

import (
	"fmt"
	"math"
)

// MatMul computes c = a·b for a (m×k) and b (k×n), returning a new (m×n)
// tensor. Inputs must be rank-2.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatMul requires rank-2 operands, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMul inner dimensions differ: %v vs %v", a.Shape, b.Shape)
	}
	c := New(m, n)
	MatMulInto(c.Data, a.Data, b.Data, m, k, n)
	return c, nil
}

// MatMulInto computes dst = a·b with raw slices; dst must have length m*n.
// Each output starts at +0 and adds a[i][p]·b[p][j] over p in ascending
// order, skipping the p where a[i][p] is zero: a conv layer's sparse
// activations skip most of their products, and the skip is part of the
// result, since 0·Inf would be NaN.
func MatMulInto(dst, a, b []float32, m, k, n int) {
	if len(dst) != m*n || len(a) != m*k || len(b) != k*n {
		panic(fmt.Sprintf("tensor: MatMulInto size mismatch m=%d k=%d n=%d (dst=%d a=%d b=%d)", m, k, n, len(dst), len(a), len(b)))
	}
	if k == 0 {
		clear(dst)
		return
	}
	var g gathered
	for i := 0; i < m; i++ {
		mulRow(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], 1, b, n, &g)
	}
}

// gatherMax is how many entries of a row mulRow gathers at a time.
const gatherMax = 256

// gathered is one chunk of a row's nonzero entries: each value and the
// offset in b of the row it multiplies.
type gathered struct {
	vals [gatherMax]float32
	offs [gatherMax]int
}

// mulRow sets dr[j] to the sum over p of ar[p*stride]·b[p*n+j], taken in
// ascending p over the nonzero ar[p*stride] and starting at +0. It is one
// output row of MatMulInto (stride 1) and of MatMulTransA (stride m, a
// column of a); ar is not empty.
//
// The row's nonzero entries are first gathered into g, a chunk at a time
// and without a branch per entry: whether an activation is zero is close
// to random, so a branch on it is often mispredicted. Then dot8 sums
// eight outputs at a time in registers over the gathered entries. That
// performs each output's float32 operations in the same order as
// accumulating in dst, so every non-NaN result has the same bits. Only
// the payload of a NaN depends on which operand of an add the compiler
// puts first, so a block whose sum is NaN, and the last n mod 8 columns,
// are summed in dst the way the plain (i,p,j) loop does.
func mulRow(dr, ar []float32, stride int, b []float32, n int, g *gathered) {
	n8 := n &^ 7
	for c := 0; c < len(ar) && n8 > 0; c += gatherMax * stride {
		end := min(len(ar), c+gatherMax*stride)
		vals, offs := g.gather(ar[c:end], stride, c/stride*n, n)
		for j := 0; j < n8; j += 8 {
			d := (*[8]float32)(dr[j : j+8])
			if c == 0 {
				*d = [8]float32{}
			}
			dot8(d, vals, offs, b[j:])
			if x := d[0] + d[1] + d[2] + d[3] + d[4] + d[5] + d[6] + d[7]; end == len(ar) && x != x {
				mulRowInPlace(d[:], ar, stride, b[j:], n)
			}
		}
	}
	if n8 < n {
		mulRowInPlace(dr[n8:], ar, stride, b[n8:], n)
	}
}

// gather collects the nonzero entries among ar[0], ar[stride], … into g,
// with bo, bo+n, … as their offsets in b, and returns them. It takes at
// most gatherMax entries.
func (g *gathered) gather(ar []float32, stride, bo, n int) ([]float32, []int) {
	cnt := 0
	for ai := 0; ai < len(ar); ai += stride {
		av := ar[ai]
		g.vals[cnt], g.offs[cnt] = av, bo
		if av != 0 {
			cnt++
		}
		bo += n
	}
	return g.vals[:cnt], g.offs[:cnt]
}

// dot8 adds vals[q]·b[offs[q]+0 … offs[q]+7] to d[0 … 7], q ascending,
// summing in registers. Indexing b one element at a time keeps each
// product next to its add; through an 8-element subslice the compiler
// computes all eight products first and runs out of registers.
func dot8(d *[8]float32, vals []float32, offs []int, b []float32) {
	s0, s1, s2, s3, s4, s5, s6, s7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
	offs = offs[:len(vals)]
	for q, av := range vals {
		bo := offs[q]
		s0 += av * b[bo]
		s1 += av * b[bo+1]
		s2 += av * b[bo+2]
		s3 += av * b[bo+3]
		s4 += av * b[bo+4]
		s5 += av * b[bo+5]
		s6 += av * b[bo+6]
		s7 += av * b[bo+7]
	}
	d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// mulRowInPlace is mulRow as the plain loop: accumulating in dr itself,
// with a branch per entry.
func mulRowInPlace(dr, ar []float32, stride int, b []float32, n int) {
	clear(dr)
	for ai, bo := 0, 0; ai < len(ar); ai, bo = ai+stride, bo+n {
		av := ar[ai]
		if av == 0 {
			continue
		}
		for j, bv := range b[bo : bo+len(dr)] {
			dr[j] += av * bv
		}
	}
}

// MatMulTransB computes dst = a·bᵀ for a (m×k) and b (n×k); dst length m*n.
// Each output is one accumulator summed over p in ascending order; the
// kernel computes four outputs of a row per pass over it, which changes
// the speed and not a single bit of the result.
func MatMulTransB(dst, a, b []float32, m, k, n int) {
	if len(dst) != m*n || len(a) != m*k || len(b) != n*k {
		panic(fmt.Sprintf("tensor: MatMulTransB size mismatch m=%d k=%d n=%d", m, k, n))
	}
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			b0, b1, b2, b3 = b0[:len(ar)], b1[:len(ar)], b2[:len(ar)], b3[:len(ar)]
			var s0, s1, s2, s3 float32
			for p, av := range ar {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			dr[j], dr[j+1], dr[j+2], dr[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			br := b[j*k : (j+1)*k]
			br = br[:len(ar)]
			var s float32
			for p, av := range ar {
				s += av * br[p]
			}
			dr[j] = s
		}
	}
}

// MatMulTransA computes dst = aᵀ·b for a (k×m) and b (k×n); dst length m*n.
// Each output sums over p like MatMulInto's, skipping zero a[p][i].
func MatMulTransA(dst, a, b []float32, m, k, n int) {
	if len(dst) != m*n || len(a) != k*m || len(b) != k*n {
		panic(fmt.Sprintf("tensor: MatMulTransA size mismatch m=%d k=%d n=%d", m, k, n))
	}
	if k == 0 {
		clear(dst)
		return
	}
	var g gathered
	for i := 0; i < m; i++ {
		mulRow(dst[i*n:(i+1)*n], a[i:], m, b, n, &g)
	}
}

// ConvGeom describes a 2-D convolution geometry (square kernel, no dilation).
type ConvGeom struct {
	InH, InW, InC int // input height, width, channels
	K             int // kernel side
	Stride        int
	Pad           int
	OutC          int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.K)/g.Stride + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.K)/g.Stride + 1 }

// Validate checks that the geometry is internally consistent.
func (g ConvGeom) Validate() error {
	switch {
	case g.InH <= 0 || g.InW <= 0 || g.InC <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.K <= 0 || g.Stride <= 0 || g.Pad < 0 || g.OutC <= 0:
		return fmt.Errorf("tensor: conv geometry has invalid kernel/stride/pad/outc %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output %+v", g)
	}
	return nil
}

// Im2Col expands input (HWC, shape {InH,InW,InC}) into a matrix of shape
// {OutH*OutW, K*K*InC} so convolution becomes a matmul with the filter
// matrix {K*K*InC, OutC}. Out-of-bounds (padding) elements are zero.
// In HWC layout each kernel row of the input is one contiguous run of
// K*InC elements, so a row that lies wholly inside the input is one copy.
func Im2Col(dst []float32, in []float32, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	cols := g.K * g.K * g.InC
	if len(dst) != oh*ow*cols {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", len(dst), oh*ow*cols))
	}
	if len(in) != g.InH*g.InW*g.InC {
		panic(fmt.Sprintf("tensor: Im2Col input length %d, want %d", len(in), g.InH*g.InW*g.InC))
	}
	run := g.K * g.InC
	di := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*g.Stride - g.Pad
			colsIn := ix0 >= 0 && ix0+g.K <= g.InW
			for ky := 0; ky < g.K; ky++ {
				iy := oy*g.Stride + ky - g.Pad
				d := dst[di : di+run]
				di += run
				if colsIn && iy >= 0 && iy < g.InH {
					src := (iy*g.InW + ix0) * g.InC
					copy(d, in[src:src+run])
					continue
				}
				for kx := 0; kx < g.K; kx++ {
					ix := ix0 + kx
					dk := d[kx*g.InC : (kx+1)*g.InC]
					if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
						clear(dk)
						continue
					}
					src := (iy*g.InW + ix) * g.InC
					copy(dk, in[src:src+g.InC])
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it zeroes dstIn, then scatters and
// accumulates the column matrix back into that input-shaped gradient
// buffer. Whatever dstIn held before the call is discarded.
func Col2Im(dstIn []float32, cols []float32, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	ncols := g.K * g.K * g.InC
	if len(cols) != oh*ow*ncols {
		panic(fmt.Sprintf("tensor: Col2Im cols length %d, want %d", len(cols), oh*ow*ncols))
	}
	if len(dstIn) != g.InH*g.InW*g.InC {
		panic(fmt.Sprintf("tensor: Col2Im dst length %d, want %d", len(dstIn), g.InH*g.InW*g.InC))
	}
	clear(dstIn)
	si := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ky := 0; ky < g.K; ky++ {
				iy := oy*g.Stride + ky - g.Pad
				for kx := 0; kx < g.K; kx++ {
					ix := ox*g.Stride + kx - g.Pad
					if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
						si += g.InC
						continue
					}
					dst := (iy*g.InW + ix) * g.InC
					for c := 0; c < g.InC; c++ {
						dstIn[dst+c] += cols[si]
						si++
					}
				}
			}
		}
	}
}

// Conv2D performs a 2-D convolution of in (HWC {InH,InW,InC}) with filters
// (shape {K*K*InC, OutC}) and bias (len OutC), returning HWC output
// {OutH,OutW,OutC}. It uses im2col + matmul.
func Conv2D(in *Tensor, filters *Tensor, bias []float32, g ConvGeom) (*Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if in.Len() != g.InH*g.InW*g.InC {
		return nil, fmt.Errorf("tensor: Conv2D input volume %d does not match geometry %+v", in.Len(), g)
	}
	cols := g.K * g.K * g.InC
	if filters.Len() != cols*g.OutC {
		return nil, fmt.Errorf("tensor: Conv2D filter volume %d, want %d", filters.Len(), cols*g.OutC)
	}
	if len(bias) != g.OutC {
		return nil, fmt.Errorf("tensor: Conv2D bias length %d, want %d", len(bias), g.OutC)
	}
	oh, ow := g.OutH(), g.OutW()
	colBuf := make([]float32, oh*ow*cols)
	Im2Col(colBuf, in.Data, g)
	out := New(oh, ow, g.OutC)
	MatMulInto(out.Data, colBuf, filters.Data, oh*ow, cols, g.OutC)
	for i := 0; i < oh*ow; i++ {
		row := out.Data[i*g.OutC : (i+1)*g.OutC]
		for c := range row {
			row[c] += bias[c]
		}
	}
	return out, nil
}

// MaxPool2 performs 2×2 max pooling with stride 2 over an HWC tensor,
// truncating odd trailing rows/columns (floor semantics). It also returns
// the flat argmax index of each pooled element for use in backprop.
func MaxPool2(in *Tensor) (*Tensor, []int32, error) {
	if err := checkPool(in); err != nil {
		return nil, nil, err
	}
	out := New(in.Shape[0]/2, in.Shape[1]/2, in.Shape[2])
	arg := make([]int32, out.Len())
	if err := MaxPool2Into(out, arg, in); err != nil {
		return nil, nil, err
	}
	return out, arg, nil
}

// MaxPool2Into is MaxPool2 writing into caller-owned buffers: out must
// have shape {H/2, W/2, C} for in's {H, W, C} and arg out's length.
func MaxPool2Into(out *Tensor, arg []int32, in *Tensor) error {
	if err := checkPool(in); err != nil {
		return err
	}
	h, w, c := in.Shape[0], in.Shape[1], in.Shape[2]
	oh, ow := h/2, w/2
	if out.Rank() != 3 || out.Shape[0] != oh || out.Shape[1] != ow || out.Shape[2] != c || len(arg) != out.Len() {
		return fmt.Errorf("tensor: MaxPool2Into buffers %v/%d do not fit input %v", out.Shape, len(arg), in.Shape)
	}
	// Each window is four runs of c channels: two adjacent pixels of input
	// row 2·oy and the two below them in row 2·oy+1. The top-left value is
	// the first candidate and the other three follow in row-major order,
	// each winning only when strictly greater, so a tie keeps the earlier
	// index and a NaN after the first never wins.
	rowLen := w * c
	for oy := 0; oy < oh; oy++ {
		top := (2 * oy) * rowLen
		r0 := in.Data[top : top+rowLen]
		r1 := in.Data[top+rowLen : top+2*rowLen]
		for ox := 0; ox < ow; ox++ {
			o := (oy*ow + ox) * c
			od, ad := out.Data[o:o+c], arg[o:o+c]
			x := 2 * ox * c
			p00, p01 := r0[x:x+c], r0[x+c:x+2*c]
			p10, p11 := r1[x:x+c], r1[x+c:x+2*c]
			p00, p01, p10, p11 = p00[:len(od)], p01[:len(od)], p10[:len(od)], p11[:len(od)]
			ad = ad[:len(od)]
			i00 := top + x
			for ch := range od {
				best, bi := p00[ch], i00+ch
				if v := p01[ch]; v > best {
					best, bi = v, i00+c+ch
				}
				if v := p10[ch]; v > best {
					best, bi = v, i00+rowLen+ch
				}
				if v := p11[ch]; v > best {
					best, bi = v, i00+rowLen+c+ch
				}
				od[ch] = best
				ad[ch] = int32(bi)
			}
		}
	}
	return nil
}

// checkPool rejects inputs MaxPool2 cannot pool.
func checkPool(in *Tensor) error {
	if in.Rank() != 3 {
		return fmt.Errorf("tensor: MaxPool2 requires HWC rank-3 input, got %v", in.Shape)
	}
	if in.Shape[0]/2 == 0 || in.Shape[1]/2 == 0 {
		return fmt.Errorf("tensor: MaxPool2 input %v too small", in.Shape)
	}
	return nil
}

// ReLU applies max(0,x) element-wise, returning a new tensor.
func ReLU(in *Tensor) *Tensor {
	out := in.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// Softmax returns the softmax of a rank-1 tensor, numerically stabilized by
// subtracting the max logit.
func Softmax(in *Tensor) *Tensor {
	out := New(in.Shape...)
	SoftmaxInto(out.Data, in.Data)
	return out
}

// SoftmaxInto writes the softmax of src into dst, which must have src's
// length; the two may not overlap.
func SoftmaxInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: SoftmaxInto length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		return
	}
	maxv := src[0]
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range src {
		e := math.Exp(float64(v - maxv))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference loops below are the straightforward forms of the training
// kernels. The production kernels compute the same float32 operations in
// the same order, only blocked differently, so every output must match the
// reference bit for bit: trained weights, and through them every golden,
// depend on each rounding.

// refMatMulInto is MatMulInto's (i,p,j) loop: each output starts at +0 and
// adds av*b[p][j] over p ascending, skipping zero av.
func refMatMulInto(dst, a, b []float32, m, k, n int) {
	clear(dst)
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		for p, av := range ar {
			if av == 0 {
				continue
			}
			br := b[p*n : (p+1)*n]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

// refMatMulTransA is MatMulTransA's (p,i,j) loop.
func refMatMulTransA(dst, a, b []float32, m, k, n int) {
	clear(dst)
	for p := 0; p < k; p++ {
		ar := a[p*m : (p+1)*m]
		br := b[p*n : (p+1)*n]
		for i, av := range ar {
			if av == 0 {
				continue
			}
			dr := dst[i*n : (i+1)*n]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

// refIm2Col is Im2Col one kernel element at a time.
func refIm2Col(dst []float32, in []float32, g ConvGeom) {
	di := 0
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			for ky := 0; ky < g.K; ky++ {
				iy := oy*g.Stride + ky - g.Pad
				for kx := 0; kx < g.K; kx++ {
					ix := ox*g.Stride + kx - g.Pad
					for c := 0; c < g.InC; c++ {
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							dst[di] = 0
						} else {
							dst[di] = in[(iy*g.InW+ix)*g.InC+c]
						}
						di++
					}
				}
			}
		}
	}
}

// refMaxPool2Into is MaxPool2Into one window element at a time: the
// window's top-left element first, then the four in row-major order, a
// later one winning only when strictly greater.
func refMaxPool2Into(out []float32, arg []int32, in []float32, h, w, c int) {
	oh, ow := h/2, w/2
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ch := 0; ch < c; ch++ {
				bi := ((2*oy)*w+2*ox)*c + ch
				best := in[bi]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := ((2*oy+dy)*w+(2*ox+dx))*c + ch
						if in[idx] > best {
							best, bi = in[idx], idx
						}
					}
				}
				o := (oy*ow+ox)*c + ch
				out[o] = best
				arg[o] = int32(bi)
			}
		}
	}
}

// specials are the float32 values whose arithmetic is easiest to get
// subtly wrong: signed zeros, NaNs with payloads and either sign,
// infinities, subnormals and values near the overflow edge.
var specials = []float32{
	0,
	float32(math.Copysign(0, -1)),
	math.Float32frombits(0x7fc00001), // quiet NaN, payload 1
	math.Float32frombits(0xffc00abc), // negative quiet NaN, payload
	math.Float32frombits(0x7f800123), // signalling NaN
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.Float32frombits(0x00000001),  // smallest subnormal
	-math.Float32frombits(0x007fffff), // largest negative subnormal
	1e-30,
	-3e38,
	3e38,
}

// operand returns n values uniform in [-1, 1), each zero with
// probability zeros and, when special is set, about one in three a
// special value instead.
func operand(rng *rand.Rand, n int, zeros float64, special bool) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch {
		case special && rng.Intn(3) == 0:
			v[i] = specials[rng.Intn(len(specials))]
		case rng.Float64() < zeros:
			v[i] = 0
		default:
			v[i] = rng.Float32()*2 - 1
		}
	}
	return v
}

// sameBits fails the test at the first element whose bits differ.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), reference %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// stale returns an n-element buffer of garbage the kernel must overwrite.
func stale(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(math.NaN())
	}
	return v
}

// matMulShapes are the shapes the two forward-style matmuls see in
// training (MNIST and CIFAR conv and dense layers, in both the forward
// and the filter-gradient orientation) plus small ones whose n is not a
// multiple of 8, so the scalar tail runs alone and after a block.
var matMulShapes = []struct {
	name    string
	m, k, n int
}{
	{"n=1", 5, 7, 1},
	{"n=3", 4, 6, 3},
	{"n=8", 3, 5, 8},
	{"n=9", 3, 5, 9},
	{"n=15", 2, 4, 15},
	{"n=17", 2, 3, 17},
	{"k=1", 6, 1, 10},
	{"k=0", 3, 0, 9},
	{"m=0", 0, 4, 9},
	{"mnist conv1", 676, 9, 8},
	{"mnist conv2", 121, 72, 16},
	{"mnist dense", 1, 400, 10},
	{"cifar conv1", 900, 27, 16},
	{"cifar conv2", 169, 144, 32},
}

func TestMatMulKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, tc := range matMulShapes {
		for _, mode := range []struct {
			name    string
			zeros   float64
			special bool
		}{{"dense", 0, false}, {"sparse", 0.7, false}, {"special", 0, true}, {"sparse+special", 0.5, true}} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				m, k, n := tc.m, tc.k, tc.n
				a := operand(rng, m*k, mode.zeros, mode.special)
				b := operand(rng, k*n, 0, mode.special)
				want := make([]float32, m*n)
				refMatMulInto(want, a, b, m, k, n)
				got := stale(m * n)
				MatMulInto(got, a, b, m, k, n)
				sameBits(t, "MatMulInto", got, want)

				// The same a read as k×m: dst = aᵀ·b for a (k×m), b (k×n).
				bt := operand(rng, m*n, 0, mode.special)
				want = make([]float32, k*n)
				refMatMulTransA(want, a, bt, k, m, n)
				got = stale(k * n)
				MatMulTransA(got, a, bt, k, m, n)
				sameBits(t, "MatMulTransA", got, want)
			})
		}
	}
}

func TestIm2ColBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, g := range []ConvGeom{
		{InH: 28, InW: 28, InC: 1, K: 3, Stride: 1, OutC: 8},
		{InH: 13, InW: 13, InC: 8, K: 3, Stride: 1, OutC: 16},
		{InH: 32, InW: 32, InC: 3, K: 3, Stride: 1, OutC: 16},
		{InH: 7, InW: 9, InC: 2, K: 3, Stride: 1, Pad: 1, OutC: 1},
		{InH: 9, InW: 7, InC: 3, K: 5, Stride: 2, Pad: 2, OutC: 1},
		{InH: 10, InW: 11, InC: 1, K: 4, Stride: 3, OutC: 1},
		{InH: 6, InW: 6, InC: 2, K: 2, Stride: 2, Pad: 3, OutC: 1},
		{InH: 5, InW: 5, InC: 1, K: 5, Stride: 1, OutC: 1},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d/k%d/s%d/p%d", g.InH, g.InW, g.InC, g.K, g.Stride, g.Pad), func(t *testing.T) {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			in := operand(rng, g.InH*g.InW*g.InC, 0.5, true)
			n := g.OutH() * g.OutW() * g.K * g.K * g.InC
			want := make([]float32, n)
			refIm2Col(want, in, g)
			got := stale(n)
			Im2Col(got, in, g)
			sameBits(t, "Im2Col", got, want)
		})
	}
}

func TestMaxPool2IntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range [][3]int{{26, 26, 8}, {11, 11, 16}, {30, 30, 16}, {5, 7, 3}, {2, 2, 1}, {9, 4, 2}} {
		for _, mode := range []string{"random", "ties", "special"} {
			t.Run(fmt.Sprintf("%dx%dx%d/%s", sh[0], sh[1], sh[2], mode), func(t *testing.T) {
				h, w, c := sh[0], sh[1], sh[2]
				in := New(h, w, c)
				for i := range in.Data {
					switch mode {
					case "random":
						in.Data[i] = rng.Float32()*2 - 1
					case "ties":
						// Few distinct values: most windows hold a tie
						// for the maximum, signed zeros included.
						in.Data[i] = []float32{0, float32(math.Copysign(0, -1)), 1, -1}[rng.Intn(4)]
					default:
						in.Data[i] = operand(rng, 1, 0, true)[0]
					}
				}
				out := New(h/2, w/2, c)
				copy(out.Data, stale(out.Len()))
				arg := make([]int32, out.Len())
				for i := range arg {
					arg[i] = -1
				}
				if err := MaxPool2Into(out, arg, in); err != nil {
					t.Fatal(err)
				}
				want := make([]float32, out.Len())
				wantArg := make([]int32, out.Len())
				refMaxPool2Into(want, wantArg, in.Data, h, w, c)
				sameBits(t, "MaxPool2Into", out.Data, want)
				for i := range wantArg {
					if arg[i] != wantArg[i] {
						t.Fatalf("arg[%d] = %d, reference %d", i, arg[i], wantArg[i])
					}
				}
			})
		}
	}
}

// convShapes are the two victims' convolution layers, each with the
// share of zeros in its input measured on a default-seed victim after
// one training epoch (the synthetic images and the pooled ReLU maps).
var convShapes = []struct {
	name  string
	g     ConvGeom
	zeros float64
}{
	{"mnist/conv1", ConvGeom{InH: 28, InW: 28, InC: 1, K: 3, Stride: 1, OutC: 8}, 0.38},
	{"mnist/conv2", ConvGeom{InH: 13, InW: 13, InC: 8, K: 3, Stride: 1, OutC: 16}, 0.70},
	{"cifar/conv1", ConvGeom{InH: 32, InW: 32, InC: 3, K: 3, Stride: 1, OutC: 16}, 0},
	{"cifar/conv2", ConvGeom{InH: 15, InW: 15, InC: 16, K: 3, Stride: 1, OutC: 32}, 0.38},
}

// BenchmarkConvKernels times one training sample's kernel calls for each
// convolution layer of the MNIST and CIFAR victims: the forward matmul,
// the filter-gradient record (MatMulTransA), the input gradient
// (MatMulTransB), im2col and the 2×2 pool of the layer's output. The
// iterations cycle through benchSamples inputs with zeros at random
// positions, as in training, where every sample is new: a branch
// predictor can learn the zero pattern of one input repeated. Each matmul
// reports its multiply-adds per op, so a shape's ns/op converts to a MAC
// rate.
func BenchmarkConvKernels(b *testing.B) {
	const benchSamples = 16
	for _, cs := range convShapes {
		g := cs.g
		rng := rand.New(rand.NewSource(18))
		rows, cols := g.OutH()*g.OutW(), g.K*g.K*g.InC
		filt := operand(rng, cols*g.OutC, 0, false)
		var ins, colBufs, gradOuts [benchSamples][]float32
		var acts [benchSamples]*Tensor
		for s := range ins {
			ins[s] = operand(rng, g.InH*g.InW*g.InC, cs.zeros, false)
			colBufs[s] = make([]float32, rows*cols)
			Im2Col(colBufs[s], ins[s], g)
			gradOuts[s] = operand(rng, rows*g.OutC, 0, false)
			acts[s] = New(g.OutH(), g.OutW(), g.OutC)
			MatMulInto(acts[s].Data, colBufs[s], filt, rows, cols, g.OutC)
		}
		out := make([]float32, rows*g.OutC)
		rec := make([]float32, cols*g.OutC)
		dCols := make([]float32, rows*cols)
		colBuf := make([]float32, rows*cols)
		pooled := New(g.OutH()/2, g.OutW()/2, g.OutC)
		arg := make([]int32, pooled.Len())
		macs := float64(rows * cols * g.OutC)
		for _, k := range []struct {
			name string
			macs float64
			fn   func(s int)
		}{
			{"forward", macs, func(s int) { MatMulInto(out, colBufs[s], filt, rows, cols, g.OutC) }},
			{"record", macs, func(s int) { MatMulTransA(rec, colBufs[s], gradOuts[s], cols, rows, g.OutC) }},
			{"inputgrad", macs, func(s int) { MatMulTransB(dCols, gradOuts[s], filt, rows, g.OutC, cols) }},
			{"im2col", 0, func(s int) { Im2Col(colBuf, ins[s], g) }},
			{"pool", 0, func(s int) {
				if err := MaxPool2Into(pooled, arg, acts[s]); err != nil {
					b.Fatal(err)
				}
			}},
		} {
			b.Run(cs.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(i % benchSamples)
				}
				if k.macs > 0 {
					b.ReportMetric(k.macs, "MACs/op")
				}
			})
		}
	}
}

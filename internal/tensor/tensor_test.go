package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroFilled(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	for i, v := range tt.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if tt.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", tt.Rank())
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative dim did not panic")
		}
	}()
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	_, err := FromSlice([]float32{1, 2, 3}, 2, 2)
	if err == nil {
		t.Fatal("FromSlice accepted mismatched volume")
	}
	tt, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tt.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", tt.At(1, 0))
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4, 5)
	tt.Set(7.5, 2, 1, 3)
	if got := tt.At(2, 1, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset: ((2*4)+1)*5+3 = 48.
	if tt.Data[48] != 7.5 {
		t.Fatalf("flat offset wrong: Data[48] = %v", tt.Data[48])
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds At did not panic")
		}
	}()
	tt.At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !a.SameShape(b) {
		t.Fatal("Clone changed shape")
	}
}

func TestReshape(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.At(2, 1) != 6 {
		t.Fatalf("reshaped At(2,1) = %v, want 6", b.At(2, 1))
	}
	if _, err := a.Reshape(4, 2); err == nil {
		t.Fatal("Reshape accepted wrong volume")
	}
	// Reshape shares data.
	b.Data[0] = -1
	if a.Data[0] != -1 {
		t.Fatal("Reshape copied data; want shared backing array")
	}
}

func TestScaleAddScaledSum(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3}, 3)
	b := MustFromSlice([]float32{10, 20, 30}, 3)
	a.AddScaled(b, 0.5)
	want := []float32{6, 12, 18}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("AddScaled[%d] = %v, want %v", i, a.Data[i], want[i])
		}
	}
	a.Scale(2)
	if !almostEq(a.Sum(), 72, 1e-6) {
		t.Fatalf("Sum = %v, want 72", a.Sum())
	}
}

func TestMaxIndex(t *testing.T) {
	a := MustFromSlice([]float32{3, 9, 9, 1}, 4)
	i, v := a.MaxIndex()
	if i != 1 || v != 9 {
		t.Fatalf("MaxIndex = (%d,%v), want (1,9) first-on-ties", i, v)
	}
}

func TestCountNonZero(t *testing.T) {
	a := MustFromSlice([]float32{0, 1e-9, -1e-9, 0.5, -2}, 5)
	if n := a.CountNonZero(1e-6); n != 2 {
		t.Fatalf("CountNonZero = %d, want 2", n)
	}
	if n := a.CountNonZero(0); n != 4 {
		t.Fatalf("CountNonZero(0) = %d, want 4", n)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("MatMul accepted mismatched inner dims")
	}
	c := New(6)
	if _, err := MatMul(c, b); err == nil {
		t.Fatal("MatMul accepted rank-1 operand")
	}
}

// naiveMatMul is the reference triple loop for cross-checking kernels.
func naiveMatMul(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			out[i*n+j] = float32(s)
		}
	}
	return out
}

func TestMatMulAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = rng.Float32()*2 - 1
		}
		for i := range b {
			b[i] = rng.Float32()*2 - 1
		}
		want := naiveMatMul(a, b, m, k, n)
		got := make([]float32, m*n)
		MatMulInto(got, a, b, m, k, n)
		for i := range want {
			if !almostEq(float64(got[i]), float64(want[i]), 1e-4) {
				t.Fatalf("trial %d: MatMulInto[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMatMulTransBBitIdentical pins MatMulTransB to the one-accumulator
// loop it replaced, bit for bit: trained weights depend on every rounding
// of it. The shapes cover the four-column blocks with and without a
// remainder (n mod 4 = 0..3), and the values include ±0, NaN and ±Inf.
func TestMatMulTransBBitIdentical(t *testing.T) {
	naive := func(a, b []float32, m, k, n int) []float32 {
		dst := make([]float32, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[i*k+p] * b[j*k+p]
				}
				dst[i*n+j] = s
			}
		}
		return dst
	}
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-30, -1e30}
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name    string
		m, k, n int
		special bool
	}{
		{"n=4", 3, 5, 4, false},
		{"n=5", 3, 5, 5, false},
		{"n=6", 2, 7, 6, false},
		{"n=7", 2, 7, 7, false},
		{"n=1", 4, 3, 1, false},
		{"conv2 dCols", 121, 16, 72, false},
		{"conv1 dCols", 676, 8, 9, false},
		{"dense dIn", 1, 10, 400, false},
		{"special n=9", 5, 6, 9, true},
		{"special n=12", 4, 3, 12, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fill := func(n int) []float32 {
				v := make([]float32, n)
				for i := range v {
					v[i] = rng.Float32()*2 - 1
					if tc.special && rng.Intn(3) == 0 {
						v[i] = special[rng.Intn(len(special))]
					}
				}
				return v
			}
			a, b := fill(tc.m*tc.k), fill(tc.n*tc.k)
			want := naive(a, b, tc.m, tc.k, tc.n)
			got := make([]float32, tc.m*tc.n)
			for i := range got {
				got[i] = 7 // stale contents must be overwritten
			}
			MatMulTransB(got, a, b, tc.m, tc.k, tc.n)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("dst[%d] = %v (%#x), naive loop %v (%#x)", i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		})
	}
}

func TestMatMulTransBAndTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 5, 4, 6
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = rng.Float32() - 0.5
	}
	for i := range b {
		b[i] = rng.Float32() - 0.5
	}
	want := naiveMatMul(a, b, m, k, n)

	// TransB: build bT (n×k) then a·bTᵀ should equal a·b.
	bT := make([]float32, n*k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bT[j*k+p] = b[p*n+j]
		}
	}
	got := make([]float32, m*n)
	MatMulTransB(got, a, bT, m, k, n)
	for i := range want {
		if !almostEq(float64(got[i]), float64(want[i]), 1e-4) {
			t.Fatalf("MatMulTransB[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// TransA: build aT (k×m) then aTᵀ·b should equal a·b.
	aT := make([]float32, k*m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			aT[p*m+i] = a[i*k+p]
		}
	}
	clear(got)
	MatMulTransA(got, aT, b, m, k, n)
	for i := range want {
		if !almostEq(float64(got[i]), float64(want[i]), 1e-4) {
			t.Fatalf("MatMulTransA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InH: 8, InW: 8, InC: 3, K: 3, Stride: 1, Pad: 0, OutC: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	if good.OutH() != 6 || good.OutW() != 6 {
		t.Fatalf("OutH/OutW = %d/%d, want 6/6", good.OutH(), good.OutW())
	}
	bad := good
	bad.K = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("K=0 accepted")
	}
	bad = good
	bad.InH = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("InH=0 accepted")
	}
	bad = good
	bad.K = 10
	if err := bad.Validate(); err == nil {
		t.Fatal("empty output accepted")
	}
}

// naiveConv is a direct reference convolution for cross-checking im2col.
func naiveConv(in []float32, filt []float32, bias []float32, g ConvGeom) []float32 {
	oh, ow := g.OutH(), g.OutW()
	out := make([]float32, oh*ow*g.OutC)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for oc := 0; oc < g.OutC; oc++ {
				s := float64(bias[oc])
				for ky := 0; ky < g.K; ky++ {
					for kx := 0; kx < g.K; kx++ {
						iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							continue
						}
						for c := 0; c < g.InC; c++ {
							w := filt[((ky*g.K+kx)*g.InC+c)*g.OutC+oc]
							s += float64(in[(iy*g.InW+ix)*g.InC+c]) * float64(w)
						}
					}
				}
				out[(oy*ow+ox)*g.OutC+oc] = float32(s)
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	geoms := []ConvGeom{
		{InH: 6, InW: 6, InC: 1, K: 3, Stride: 1, Pad: 0, OutC: 2},
		{InH: 8, InW: 7, InC: 3, K: 3, Stride: 1, Pad: 1, OutC: 4},
		{InH: 9, InW: 9, InC: 2, K: 5, Stride: 2, Pad: 2, OutC: 3},
	}
	for gi, g := range geoms {
		in := New(g.InH, g.InW, g.InC)
		for i := range in.Data {
			in.Data[i] = rng.Float32()*2 - 1
		}
		filt := New(g.K*g.K*g.InC, g.OutC)
		for i := range filt.Data {
			filt.Data[i] = rng.Float32()*2 - 1
		}
		bias := make([]float32, g.OutC)
		for i := range bias {
			bias[i] = rng.Float32()
		}
		got, err := Conv2D(in, filt, bias, g)
		if err != nil {
			t.Fatalf("geom %d: %v", gi, err)
		}
		want := naiveConv(in.Data, filt.Data, bias, g)
		for i := range want {
			if !almostEq(float64(got.Data[i]), float64(want[i]), 1e-3) {
				t.Fatalf("geom %d: Conv2D[%d] = %v, want %v", gi, i, got.Data[i], want[i])
			}
		}
	}
}

func TestConv2DErrors(t *testing.T) {
	g := ConvGeom{InH: 6, InW: 6, InC: 1, K: 3, Stride: 1, OutC: 2}
	in := New(5, 5, 1) // wrong volume
	filt := New(9, 2)
	bias := make([]float32, 2)
	if _, err := Conv2D(in, filt, bias, g); err == nil {
		t.Fatal("Conv2D accepted wrong input volume")
	}
	in = New(6, 6, 1)
	if _, err := Conv2D(in, New(8, 2), bias, g); err == nil {
		t.Fatal("Conv2D accepted wrong filter volume")
	}
	if _, err := Conv2D(in, filt, make([]float32, 3), g); err == nil {
		t.Fatal("Conv2D accepted wrong bias length")
	}
}

func TestCol2ImAdjointProperty(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint identity,
	// which is exactly what conv backprop relies on.
	rng := rand.New(rand.NewSource(5))
	g := ConvGeom{InH: 7, InW: 6, InC: 2, K: 3, Stride: 1, Pad: 1, OutC: 1}
	nIn := g.InH * g.InW * g.InC
	nCols := g.OutH() * g.OutW() * g.K * g.K * g.InC
	x := make([]float32, nIn)
	y := make([]float32, nCols)
	for i := range x {
		x[i] = rng.Float32() - 0.5
	}
	for i := range y {
		y[i] = rng.Float32() - 0.5
	}
	cx := make([]float32, nCols)
	Im2Col(cx, x, g)
	var lhs float64
	for i := range y {
		lhs += float64(cx[i]) * float64(y[i])
	}
	ay := make([]float32, nIn)
	Col2Im(ay, y, g)
	var rhs float64
	for i := range x {
		rhs += float64(x[i]) * float64(ay[i])
	}
	if !almostEq(lhs, rhs, 1e-3) {
		t.Fatalf("adjoint identity broken: %v vs %v", lhs, rhs)
	}
}

func TestMaxPool2(t *testing.T) {
	in := MustFromSlice([]float32{
		1, 5, 2, 0,
		3, 4, 8, 1,
		0, 0, 2, 2,
		9, 1, 3, 7,
	}, 4, 4, 1)
	out, arg, err := MaxPool2(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{5, 8, 9, 7}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("MaxPool2[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
	// argmax indices must point back at the winning elements.
	for i := range want {
		if in.Data[arg[i]] != want[i] {
			t.Fatalf("arg[%d] -> %v, want %v", i, in.Data[arg[i]], want[i])
		}
	}
}

func TestMaxPool2OddDims(t *testing.T) {
	in := New(5, 5, 2)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out, _, err := MaxPool2(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[0] != 2 || out.Shape[1] != 2 || out.Shape[2] != 2 {
		t.Fatalf("odd-dim pool shape = %v, want [2 2 2]", out.Shape)
	}
}

func TestMaxPool2Errors(t *testing.T) {
	if _, _, err := MaxPool2(New(4, 4)); err == nil {
		t.Fatal("rank-2 input accepted")
	}
	if _, _, err := MaxPool2(New(1, 4, 1)); err == nil {
		t.Fatal("too-small input accepted")
	}
}

func TestReLU(t *testing.T) {
	in := MustFromSlice([]float32{-1, 0, 2, -0.5}, 4)
	out := ReLU(in)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("ReLU[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
	if in.Data[0] != -1 {
		t.Fatal("ReLU mutated its input")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	in := MustFromSlice([]float32{1, 2, 3, 4}, 4)
	out := Softmax(in)
	if !almostEq(out.Sum(), 1, 1e-6) {
		t.Fatalf("softmax sum = %v, want 1", out.Sum())
	}
	for i := 1; i < len(out.Data); i++ {
		if out.Data[i] <= out.Data[i-1] {
			t.Fatal("softmax not monotone for monotone logits")
		}
	}
	// Shift invariance.
	shifted := MustFromSlice([]float32{101, 102, 103, 104}, 4)
	out2 := Softmax(shifted)
	for i := range out.Data {
		if !almostEq(float64(out.Data[i]), float64(out2.Data[i]), 1e-6) {
			t.Fatal("softmax not shift invariant")
		}
	}
	// Large logits must not overflow.
	big := MustFromSlice([]float32{1000, 1000, 999}, 3)
	ob := Softmax(big)
	if math.IsNaN(float64(ob.Data[0])) || !almostEq(ob.Sum(), 1, 1e-6) {
		t.Fatalf("softmax unstable for large logits: %v", ob.Data)
	}
}

// Property-based tests via testing/quick.

func TestQuickMatMulDistributesOverAddition(t *testing.T) {
	// a·(b+c) == a·b + a·c for random small matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, k*n)
		for i := range a {
			a[i] = rng.Float32() - 0.5
		}
		for i := range b {
			b[i] = rng.Float32() - 0.5
			c[i] = rng.Float32() - 0.5
		}
		bc := make([]float32, k*n)
		for i := range bc {
			bc[i] = b[i] + c[i]
		}
		lhs := make([]float32, m*n)
		MatMulInto(lhs, a, bc, m, k, n)
		ab := make([]float32, m*n)
		ac := make([]float32, m*n)
		MatMulInto(ab, a, b, m, k, n)
		MatMulInto(ac, a, c, m, k, n)
		for i := range lhs {
			if !almostEq(float64(lhs[i]), float64(ab[i]+ac[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConvLinearity(t *testing.T) {
	// conv(x+y) == conv(x) + conv(y) - bias (conv is affine in its input).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ConvGeom{InH: 5, InW: 5, InC: 1 + rng.Intn(2), K: 3, Stride: 1, Pad: 1, OutC: 1 + rng.Intn(3)}
		vol := g.InH * g.InW * g.InC
		x := New(g.InH, g.InW, g.InC)
		y := New(g.InH, g.InW, g.InC)
		for i := 0; i < vol; i++ {
			x.Data[i] = rng.Float32() - 0.5
			y.Data[i] = rng.Float32() - 0.5
		}
		filt := New(g.K*g.K*g.InC, g.OutC)
		for i := range filt.Data {
			filt.Data[i] = rng.Float32() - 0.5
		}
		bias := make([]float32, g.OutC)
		xy := x.Clone()
		xy.AddScaled(y, 1)
		cxy, err := Conv2D(xy, filt, bias, g)
		if err != nil {
			return false
		}
		cx, _ := Conv2D(x, filt, bias, g)
		cy, _ := Conv2D(y, filt, bias, g)
		for i := range cxy.Data {
			if !almostEq(float64(cxy.Data[i]), float64(cx.Data[i]+cy.Data[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxPoolDominance(t *testing.T) {
	// Every pooled output must be >= all four inputs of its window... it IS
	// the max, so verify max property and membership.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w, c := 2+2*rng.Intn(3), 2+2*rng.Intn(3), 1+rng.Intn(3)
		in := New(h, w, c)
		for i := range in.Data {
			in.Data[i] = rng.Float32()*10 - 5
		}
		out, arg, err := MaxPool2(in)
		if err != nil {
			return false
		}
		oh, ow := h/2, w/2
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					o := (oy*ow+ox)*c + ch
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := ((2*oy+dy)*w+(2*ox+dx))*c + ch
							if in.Data[idx] > out.Data[o] {
								return false
							}
						}
					}
					if in.Data[arg[o]] != out.Data[o] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSoftmaxIsDistribution(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				raw[i] = 0
			}
			// Keep logits in a sane band; softmax of ±1e30 is a delta anyway.
			if raw[i] > 50 {
				raw[i] = 50
			}
			if raw[i] < -50 {
				raw[i] = -50
			}
		}
		in := MustFromSlice(raw, len(raw))
		out := Softmax(in)
		sum := 0.0
		for _, v := range out.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return almostEq(sum, 1, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

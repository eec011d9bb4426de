package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestConv2DForwardShape(t *testing.T) {
	g := tensor.ConvGeom{InH: 8, InW: 8, InC: 2, K: 3, Stride: 1, Pad: 0, OutC: 4}
	c, err := NewConv2D(g, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Forward(tensor.New(8, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[0] != 6 || out.Shape[1] != 6 || out.Shape[2] != 4 {
		t.Fatalf("conv out shape = %v, want [6 6 4]", out.Shape)
	}
}

func TestConv2DRejectsBadInput(t *testing.T) {
	g := tensor.ConvGeom{InH: 8, InW: 8, InC: 2, K: 3, Stride: 1, OutC: 4}
	c, _ := NewConv2D(g, testRNG())
	if _, err := c.Forward(tensor.New(4, 4, 2)); err == nil {
		t.Fatal("conv accepted wrong input volume")
	}
	if _, err := c.InputGrad(tensor.New(6, 6, 4)); err == nil {
		t.Fatal("conv gradient before Forward accepted")
	}
}

func TestDenseForwardBackwardShapes(t *testing.T) {
	d, err := NewDense(10, 4, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Forward(tensor.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("dense out = %d, want 4", out.Len())
	}
	dIn, err := d.InputGrad(tensor.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if dIn.Len() != 10 {
		t.Fatalf("dense dIn = %d, want 10", dIn.Len())
	}
	if _, err := NewDense(0, 4, testRNG()); err == nil {
		t.Fatal("dense accepted zero input dim")
	}
}

// numericalGrad estimates dLoss/dparam[i] with central differences.
func numericalGrad(t *testing.T, n *Network, in *tensor.Tensor, label int, p *tensor.Tensor, i int) float64 {
	t.Helper()
	const eps = 1e-3
	orig := p.Data[i]
	p.Data[i] = orig + eps
	lp, _, err := forwardLoss(n, in, label)
	if err != nil {
		t.Fatal(err)
	}
	p.Data[i] = orig - eps
	lm, _, err := forwardLoss(n, in, label)
	if err != nil {
		t.Fatal(err)
	}
	p.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

func forwardLoss(n *Network, in *tensor.Tensor, label int) (float64, *tensor.Tensor, error) {
	logits, err := n.Forward(in)
	if err != nil {
		return 0, nil, err
	}
	grad := tensor.New(logits.Shape...)
	loss, err := lossGrad(grad, logits, label)
	return loss, grad, err
}

// backprop adds one sample's parameter gradients into n's Grad tensors,
// as a training step does.
func backprop(n *Network, grad *tensor.Tensor) error {
	recs := make([]gradRecord, len(n.Layers))
	if err := n.backward(grad, recs); err != nil {
		return err
	}
	n.accumulate(recs)
	return nil
}

// TestGradientsMatchNumerical is the core correctness check for backprop: a
// tiny full network's analytic gradients must match finite differences.
func TestGradientsMatchNumerical(t *testing.T) {
	rng := testRNG()
	arch := Arch{Name: "tiny", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 3, Kernel: 3, Classes: 3}
	n, err := Build(arch, rng)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(12, 12, 1)
	for i := range in.Data {
		in.Data[i] = rng.Float32()
	}
	label := 1

	n.ZeroGrads()
	_, grad, err := forwardLoss(n, in, label)
	if err != nil {
		t.Fatal(err)
	}
	if err := backprop(n, grad); err != nil {
		t.Fatal(err)
	}

	for _, p := range n.Params() {
		// Spot-check a handful of indices per parameter tensor.
		idxs := []int{0, p.Value.Len() / 2, p.Value.Len() - 1}
		for _, i := range idxs {
			want := numericalGrad(t, n, in, label, p.Value, i)
			got := float64(p.Grad.Data[i])
			if math.Abs(got-want) > 2e-2*(1+math.Abs(want)) {
				t.Errorf("%s grad[%d] = %v, numerical %v", p.Name, i, got, want)
			}
		}
	}
}

func TestLossGradProperties(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{2, -1, 0.5}, 3)
	grad := tensor.New(3)
	loss, err := lossGrad(grad, logits, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	// Gradient components sum to zero (probs sum 1, one-hot sums 1).
	if s := grad.Sum(); math.Abs(s) > 1e-5 {
		t.Fatalf("grad sum = %v, want 0", s)
	}
	// Gradient at the true label is negative.
	if grad.Data[0] >= 0 {
		t.Fatalf("grad at true label = %v, want < 0", grad.Data[0])
	}
	if _, err := lossGrad(grad, logits, 5); err == nil {
		t.Fatal("lossGrad accepted out-of-range label")
	}
}

func TestBuildArchitectures(t *testing.T) {
	for _, arch := range []Arch{MNISTArch(), CIFARArch()} {
		n, err := Build(arch, testRNG())
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		in := tensor.New(arch.InH, arch.InW, arch.InC)
		logits, err := n.Forward(in)
		if err != nil {
			t.Fatalf("%s forward: %v", arch.Name, err)
		}
		if logits.Len() != arch.Classes {
			t.Fatalf("%s logits = %d, want %d", arch.Name, logits.Len(), arch.Classes)
		}
		if n.ParamCount() == 0 {
			t.Fatalf("%s has no parameters", arch.Name)
		}
	}
	if _, err := Build(Arch{Name: "bad", InH: 8, InW: 8, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 1}, testRNG()); err == nil {
		t.Fatal("Build accepted 1-class arch")
	}
}

func TestTrainLearnsSeparableProblem(t *testing.T) {
	// Two trivially separable classes: bright top half vs bright bottom half.
	rng := testRNG()
	arch := Arch{Name: "tiny", InH: 12, InW: 12, InC: 1, Conv1: 4, Conv2: 4, Kernel: 3, Classes: 2}
	n, err := Build(arch, rng)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []*tensor.Tensor
	var labels []int
	for i := 0; i < 120; i++ {
		img := tensor.New(12, 12, 1)
		cls := i % 2
		for y := 0; y < 12; y++ {
			for x := 0; x < 12; x++ {
				v := rng.Float32() * 0.2
				if (cls == 0 && y < 6) || (cls == 1 && y >= 6) {
					v += 0.8
				}
				img.Set(v, y, x, 0)
			}
		}
		inputs = append(inputs, img)
		labels = append(labels, cls)
	}
	err = Train(n, inputs, labels, TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.05, Momentum: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(n, inputs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("training accuracy = %v, want >= 0.95 on separable data", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	n, err := Build(Arch{Name: "t", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 2}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if err := Train(n, nil, nil, TrainConfig{}); err == nil {
		t.Fatal("Train accepted empty dataset")
	}
	if err := Train(n, []*tensor.Tensor{tensor.New(12, 12, 1)}, []int{0, 1}, TrainConfig{}); err == nil {
		t.Fatal("Train accepted mismatched inputs/labels")
	}
	if _, err := Accuracy(n, nil, nil); err == nil {
		t.Fatal("Accuracy accepted empty dataset")
	}
}

func TestSGDMomentumMovesParams(t *testing.T) {
	n, err := Build(Arch{Name: "t", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 2}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	before := n.Params()[0].Value.Clone()
	in := tensor.New(12, 12, 1)
	for i := range in.Data {
		in.Data[i] = 0.5
	}
	_, grad, err := forwardLoss(n, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := backprop(n, grad); err != nil {
		t.Fatal(err)
	}
	NewSGD(0.1, 0.9, 0).Step(n.Params(), 1)
	after := n.Params()[0].Value
	moved := false
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("SGD step did not change parameters")
	}
	// Gradients are zeroed after a step.
	for _, p := range n.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("gradient not zeroed after Step")
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	arch := Arch{Name: "t", InH: 10, InW: 10, InC: 1, Conv1: 3, Conv2: 4, Kernel: 3, Classes: 4}
	n, err := Build(arch, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, arch, n); err != nil {
		t.Fatal(err)
	}
	arch2, n2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if arch2.Name != arch.Name || arch2.Classes != arch.Classes {
		t.Fatalf("arch round-trip mismatch: %+v vs %+v", arch2, arch)
	}
	// Same input must produce identical logits.
	in := tensor.New(10, 10, 1)
	rng := rand.New(rand.NewSource(9))
	for i := range in.Data {
		in.Data[i] = rng.Float32()
	}
	l1, err := n.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := n2.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l1.Data {
		if l1.Data[i] != l2.Data[i] {
			t.Fatalf("logits differ after round trip at %d: %v vs %v", i, l1.Data[i], l2.Data[i])
		}
	}
}

func TestLoadModelCorruptStream(t *testing.T) {
	if _, _, err := LoadModel(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("LoadModel accepted garbage")
	}
}

func TestQuickReLUBackwardMask(t *testing.T) {
	// Gradient passes exactly where forward input was >= 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		r := NewReLU([]int{n})
		in := tensor.New(n)
		for i := range in.Data {
			in.Data[i] = rng.Float32()*4 - 2
		}
		if _, err := r.Forward(in); err != nil {
			return false
		}
		g := tensor.New(n)
		for i := range g.Data {
			g.Data[i] = 1
		}
		dIn, err := r.InputGrad(g)
		if err != nil {
			return false
		}
		for i := range in.Data {
			want := float32(1)
			if in.Data[i] < 0 {
				want = 0
			}
			if dIn.Data[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReLUBitIdentical pins ReLU to the branching loop it replaced: an
// element passes, bits and all, unless v < 0, so −0 and NaNs of either
// sign pass; a negative element and its gradient become +0.
func TestReLUBitIdentical(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 1e-45, -1e-45,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002), math.Float32frombits(0xff800003),
	}
	rng := rand.New(rand.NewSource(19))
	n := 4 * len(specials)
	in, g := tensor.New(n), tensor.New(n)
	for i := range in.Data {
		in.Data[i] = specials[i%len(specials)]
		g.Data[i] = specials[rng.Intn(len(specials))]
	}
	r := NewReLU([]int{n})
	out, err := r.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	dIn, err := r.InputGrad(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in.Data {
		wantOut, wantGrad := v, g.Data[i]
		if v < 0 {
			wantOut, wantGrad = 0, 0
		}
		if math.Float32bits(out.Data[i]) != math.Float32bits(wantOut) {
			t.Fatalf("Forward(%v) = %#08x, want %#08x", v, math.Float32bits(out.Data[i]), math.Float32bits(wantOut))
		}
		if math.Float32bits(dIn.Data[i]) != math.Float32bits(wantGrad) {
			t.Fatalf("InputGrad(%v) at input %v = %#08x, want %#08x", g.Data[i], v, math.Float32bits(dIn.Data[i]), math.Float32bits(wantGrad))
		}
	}
}

func TestQuickPoolBackwardConservesMass(t *testing.T) {
	// Sum of pooled-gradient scatter equals sum of incoming gradient.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w, c := 2+2*rng.Intn(4), 2+2*rng.Intn(4), 1+rng.Intn(3)
		p, err := NewMaxPool2([]int{h, w, c})
		if err != nil {
			return false
		}
		in := tensor.New(h, w, c)
		for i := range in.Data {
			in.Data[i] = rng.Float32()
		}
		out, err := p.Forward(in)
		if err != nil {
			return false
		}
		g := tensor.New(out.Shape...)
		for i := range g.Data {
			g.Data[i] = rng.Float32()
		}
		dIn, err := p.InputGrad(g)
		if err != nil {
			return false
		}
		return math.Abs(dIn.Sum()-g.Sum()) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildMLP(t *testing.T) {
	n, err := BuildMLP(MLPArch{Name: "mnist-mlp", InH: 28, InW: 28, InC: 1, Hidden: []int{128, 64}, Classes: 10}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	logits, err := n.Forward(tensor.New(28, 28, 1))
	if err != nil {
		t.Fatal(err)
	}
	if logits.Len() != 10 {
		t.Fatalf("MLP logits = %d", logits.Len())
	}
	// flatten + 2×(dense+relu) + dense = 6 layers.
	if len(n.Layers) != 6 {
		t.Fatalf("MLP layers = %d, want 6", len(n.Layers))
	}
	bad := MLPArch{Name: "bad", InH: 8, InW: 8, InC: 1, Hidden: []int{0}, Classes: 3}
	if bad.Validate() == nil {
		t.Fatal("zero hidden size accepted")
	}
	bad = MLPArch{Name: "bad", InH: 0, InW: 8, InC: 1, Classes: 3}
	if bad.Validate() == nil {
		t.Fatal("zero input dim accepted")
	}
	bad = MLPArch{Name: "bad", InH: 8, InW: 8, InC: 1, Classes: 1}
	if bad.Validate() == nil {
		t.Fatal("single class accepted")
	}
}

func TestMLPLearnsSeparableProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	arch := MLPArch{Name: "t", InH: 12, InW: 12, InC: 1, Hidden: []int{16}, Classes: 2}
	n, err := BuildMLP(arch, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs, labels := separableData(rng, 100)
	if err := Train(n, inputs, labels, TrainConfig{Epochs: 5, BatchSize: 8, LR: 0.05, Momentum: 0.9, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(n, inputs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("MLP accuracy = %v", acc)
	}
}

// saveBytes is SaveModel into a fresh buffer.
func saveBytes(t testing.TB, a Arch, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, a, n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveModelByteDeterministic pins the codec's byte stability: model
// bytes travel inside digested fabric specs, so repeated saves of one
// network must be identical and Save∘Load∘Save must be the identity.
func TestSaveModelByteDeterministic(t *testing.T) {
	arch := MNISTArch()
	n, err := Build(arch, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, arch, n)
	for i := 0; i < 20; i++ {
		if got := saveBytes(t, arch, n); !bytes.Equal(got, want) {
			t.Fatalf("save %d differs from the first save", i)
		}
	}
	arch2, n2, err := LoadModel(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, arch2, n2); !bytes.Equal(got, want) {
		t.Fatal("Save∘Load∘Save is not the identity on bytes")
	}
}

// TestSaveLoadKeepsSameNamedLayersApart is the regression for tensors
// keyed by layer name: with InC == Conv1 == Conv2 both conv filters are
// named conv3x3x4.filter and have equal lengths, so a name-keyed file
// kept only one of them and loaded it into both layers.
func TestSaveLoadKeepsSameNamedLayersApart(t *testing.T) {
	arch := Arch{Name: "t", InH: 12, InW: 12, InC: 4, Conv1: 4, Conv2: 4, Kernel: 3, Classes: 3}
	n, err := Build(arch, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	_, n2, err := LoadModel(bytes.NewReader(saveBytes(t, arch, n)))
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := n.Params(), n2.Params()
	for i := range p1 {
		for j, v := range p1[i].Value.Data {
			if p2[i].Value.Data[j] != v {
				t.Fatalf("param %d (%s) value %d: loaded %v, saved %v", i, p1[i].Name, j, p2[i].Value.Data[j], v)
			}
		}
	}
}

// encodeModelFile gob-encodes a hand-built model file, the way a hostile
// or corrupted peer could.
func encodeModelFile(t *testing.T, mf modelFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&mf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadModelRejectsHostileFiles feeds LoadModel well-formed gob whose
// contents are wrong: an architecture that would force a huge or
// impossible build, and tensors that do not match the built network.
func TestLoadModelRejectsHostileFiles(t *testing.T) {
	arch := MNISTArch()
	n, err := Build(arch, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	var good []modelTensor
	for _, p := range n.Params() {
		good = append(good, modelTensor{Name: p.Name, Data: p.Value.Data})
	}
	huge := arch
	huge.InH, huge.InW, huge.Conv1, huge.Conv2 = 4000, 4000, 4000, 4000
	swapped := append([]modelTensor(nil), good...)
	swapped[0], swapped[2] = swapped[2], swapped[0]
	short := append([]modelTensor(nil), good...)
	short[1].Data = short[1].Data[:1]
	for _, tc := range []struct {
		name string
		mf   modelFile
		want string
	}{
		{"zero dims", modelFile{Arch: Arch{Classes: 10}}, "outside"},
		{"negative kernel", modelFile{Arch: Arch{InH: 28, InW: 28, InC: 1, Conv1: 8, Conv2: 16, Kernel: -3, Classes: 10}}, "outside"},
		{"oversized dim", modelFile{Arch: Arch{InH: 1 << 20, InW: 28, InC: 1, Conv1: 8, Conv2: 16, Kernel: 3, Classes: 10}}, "outside"},
		{"too many params", modelFile{Arch: huge}, "parameters"},
		{"input too small", modelFile{Arch: Arch{InH: 6, InW: 6, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 2}}, "too small"},
		{"one class", modelFile{Arch: Arch{InH: 28, InW: 28, InC: 1, Conv1: 8, Conv2: 16, Kernel: 3, Classes: 1}}, "2 classes"},
		{"missing tensors", modelFile{Arch: arch, Tensors: good[:3]}, "has 3 tensors"},
		{"reordered tensors", modelFile{Arch: arch, Tensors: swapped}, "want"},
		{"short tensor", modelFile{Arch: arch, Tensors: short}, "has 1 values"},
	} {
		_, _, err := LoadModel(bytes.NewReader(encodeModelFile(t, tc.mf)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadModel error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, _, err := LoadModel(bytes.NewReader(encodeModelFile(t, modelFile{Arch: arch, Tensors: good}))); err != nil {
		t.Fatalf("well-formed file rejected: %v", err)
	}
}

// FuzzLoadModel: LoadModel never panics on arbitrary bytes, and any
// model it accepts saves to a canonical form that reloads and re-saves
// to the same bytes.
func FuzzLoadModel(f *testing.F) {
	n, err := Build(MNISTArch(), testRNG())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saveBytes(f, MNISTArch(), n))
	f.Add([]byte("not a gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		arch, n, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		saved := saveBytes(t, arch, n)
		arch2, n2, err := LoadModel(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("reloading a saved model: %v", err)
		}
		if !bytes.Equal(saveBytes(t, arch2, n2), saved) {
			t.Fatal("Save∘Load∘Save is not the identity on an accepted model")
		}
	})
}

// TestTrainWithValidation checks that Train rejects bad samples met
// during training: a label outside the class range and an input of the
// wrong shape both fail the run instead of being trained on.
func TestTrainWithValidation(t *testing.T) {
	n, err := Build(Arch{Name: "t", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 2}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if err := Train(n, []*tensor.Tensor{tensor.New(12, 12, 1)}, []int{2}, TrainConfig{}); err == nil {
		t.Fatal("Train accepted out-of-range label")
	}
	if err := Train(n, []*tensor.Tensor{tensor.New(12, 12, 1)}, []int{-1}, TrainConfig{}); err == nil {
		t.Fatal("Train accepted negative label")
	}
	if err := Train(n, []*tensor.Tensor{tensor.New(8, 8, 1)}, []int{0}, TrainConfig{}); err == nil {
		t.Fatal("Train accepted wrongly shaped input")
	}
}

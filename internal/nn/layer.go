// Package nn implements the convolutional neural network substrate: layers
// with forward and backward passes, a sequential network container, softmax
// cross-entropy training with SGD+momentum, and gob model serialization.
//
// Training is data-parallel inside each minibatch: its samples are spread
// over min(GOMAXPROCS, BatchSize) workers, each running forward and
// backward on its own replica of the layer caches against the shared
// weights, and the per-sample parameter gradients are then added in sample
// order. The trained bytes are therefore independent of the worker count.
//
// The paper under reproduction runs a TensorFlow CNN; this package replaces
// it with a from-scratch implementation so the instrumented side-channel
// execution (package instrument) can walk real trained weights.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// Layer is one stage of a sequential network.
//
// Forward consumes the previous layer's output and caches whatever the
// backward pass needs. The backward pass is split in two: InputGrad turns
// dL/d(output) into dL/d(input), and a layer with parameters records its
// parameter gradient separately (see trainable), so a training step can run
// samples on parallel replicas and still sum their gradients in sample
// order. Returned tensors are buffers the layer reuses: each stays valid
// until the layer's next call of the same method.
type Layer interface {
	// Name returns a short identifier used in diagnostics and model files.
	Name() string
	// OutShape returns the output shape for the configured input shape.
	OutShape() []int
	// Forward runs the layer on one sample (no batch dimension).
	Forward(in *tensor.Tensor) (*tensor.Tensor, error)
	// InputGrad returns dL/d(input) for the sample of the last Forward.
	InputGrad(gradOut *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns parameter/gradient pairs; empty for stateless layers.
	Params() []Param
	// replica returns a layer that shares this one's parameters and
	// gradient tensors but owns its caches and buffers, so the two can
	// run forward and backward on different goroutines.
	replica() Layer
}

// trainable is a Layer with parameters. record captures one sample's
// parameter-gradient contribution in rec without touching the shared Grad
// tensors, so replicas may record concurrently; accumulate then adds rec
// into the Grad tensors with exactly the float32 adds, in exactly the order,
// of a backward pass that accumulated directly.
type trainable interface {
	record(gradOut *tensor.Tensor, rec *gradRecord) error
	accumulate(rec *gradRecord)
}

// gradRecord holds one sample's parameter-gradient contribution to one
// layer between the parallel backward pass and the serial replay. What the
// two vectors hold is the layer's business: a conv layer keeps its filter
// gradient and its gradOut rows, a dense layer its input and gradOut.
type gradRecord struct{ x, g []float32 }

// Param couples a parameter tensor with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// like returns buf when it has t's shape, and a new zeroed tensor of t's
// shape otherwise.
func like(buf, t *tensor.Tensor) *tensor.Tensor {
	if buf != nil && buf.SameShape(t) {
		return buf
	}
	return tensor.New(t.Shape...)
}

// Conv2D is a 2-D convolution layer with HWC input, square kernels, and a
// bias per output channel. Filters are stored as {K*K*InC, OutC} so the
// forward pass is im2col + matmul.
type Conv2D struct {
	Geom   tensor.ConvGeom
	Filter *tensor.Tensor // {K*K*InC, OutC}
	Bias   *tensor.Tensor // {OutC}

	gFilter *tensor.Tensor
	gBias   *tensor.Tensor
	colBuf  []float32 // im2col of the last input; nil before the first Forward
	out     *tensor.Tensor
	dCols   []float32
	dIn     *tensor.Tensor
}

// NewConv2D constructs a convolution layer with He-initialized weights
// drawn from rng.
func NewConv2D(g tensor.ConvGeom, rng *rand.Rand) (*Conv2D, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	fanIn := g.K * g.K * g.InC
	std := math.Sqrt(2.0 / float64(fanIn))
	filt := tensor.New(fanIn, g.OutC)
	for i := range filt.Data {
		filt.Data[i] = float32(rng.NormFloat64() * std)
	}
	return &Conv2D{
		Geom:    g,
		Filter:  filt,
		Bias:    tensor.New(g.OutC),
		gFilter: tensor.New(fanIn, g.OutC),
		gBias:   tensor.New(g.OutC),
	}, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("conv%dx%dx%d", c.Geom.K, c.Geom.K, c.Geom.OutC) }

// OutShape implements Layer.
func (c *Conv2D) OutShape() []int { return []int{c.Geom.OutH(), c.Geom.OutW(), c.Geom.OutC} }

// Forward implements Layer.
func (c *Conv2D) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	g := c.Geom
	if in.Len() != g.InH*g.InW*g.InC {
		return nil, fmt.Errorf("nn: %s input volume %d, want %d", c.Name(), in.Len(), g.InH*g.InW*g.InC)
	}
	cols := g.K * g.K * g.InC
	oh, ow := g.OutH(), g.OutW()
	if c.colBuf == nil {
		c.colBuf = make([]float32, oh*ow*cols)
		c.out = tensor.New(oh, ow, g.OutC)
	}
	tensor.Im2Col(c.colBuf, in.Data, g)
	tensor.MatMulInto(c.out.Data, c.colBuf, c.Filter.Data, oh*ow, cols, g.OutC)
	for i := 0; i < oh*ow; i++ {
		row := c.out.Data[i*g.OutC : (i+1)*g.OutC]
		for ch := range row {
			row[ch] += c.Bias.Data[ch]
		}
	}
	return c.out, nil
}

// checkGrad validates a backward-pass input.
func (c *Conv2D) checkGrad(gradOut *tensor.Tensor) error {
	g := c.Geom
	if gradOut.Len() != g.OutH()*g.OutW()*g.OutC {
		return fmt.Errorf("nn: %s gradOut volume %d, want %d", c.Name(), gradOut.Len(), g.OutH()*g.OutW()*g.OutC)
	}
	if c.colBuf == nil {
		return fmt.Errorf("nn: %s gradient before Forward", c.Name())
	}
	return nil
}

// InputGrad implements Layer: dCols = gradOut · Filterᵀ, dIn = Col2Im(dCols).
func (c *Conv2D) InputGrad(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if err := c.checkGrad(gradOut); err != nil {
		return nil, err
	}
	g := c.Geom
	cols := g.K * g.K * g.InC
	oh, ow := g.OutH(), g.OutW()
	if c.dCols == nil {
		c.dCols = make([]float32, oh*ow*cols)
		c.dIn = tensor.New(g.InH, g.InW, g.InC)
	}
	tensor.MatMulTransB(c.dCols, gradOut.Data, c.Filter.Data, oh*ow, g.OutC, cols)
	tensor.Col2Im(c.dIn.Data, c.dCols, g)
	return c.dIn, nil
}

// record implements trainable: the sample's filter gradient colsᵀ·gradOut
// ({cols, oh*ow}·{oh*ow, OutC}) and a copy of gradOut. The bias gradient
// is kept as the gradOut rows themselves, not their sum: the bias adds
// them one row at a time across samples, and a per-sample partial sum
// would re-associate that sum.
func (c *Conv2D) record(gradOut *tensor.Tensor, rec *gradRecord) error {
	if err := c.checkGrad(gradOut); err != nil {
		return err
	}
	g := c.Geom
	cols := g.K * g.K * g.InC
	if len(rec.x) != cols*g.OutC {
		rec.x = make([]float32, cols*g.OutC)
	}
	tensor.MatMulTransA(rec.x, c.colBuf, gradOut.Data, cols, g.OutH()*g.OutW(), g.OutC)
	rec.g = append(rec.g[:0], gradOut.Data...)
	return nil
}

// accumulate implements trainable: dFilter += the recorded product, dBias
// += each recorded gradOut row in turn.
func (c *Conv2D) accumulate(rec *gradRecord) {
	for i, v := range rec.x {
		c.gFilter.Data[i] += v
	}
	outC := c.Geom.OutC
	for i := 0; i < len(rec.g); i += outC {
		for ch, v := range rec.g[i : i+outC] {
			c.gBias.Data[ch] += v
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []Param {
	return []Param{
		{Name: c.Name() + ".filter", Value: c.Filter, Grad: c.gFilter},
		{Name: c.Name() + ".bias", Value: c.Bias, Grad: c.gBias},
	}
}

func (c *Conv2D) replica() Layer {
	return &Conv2D{Geom: c.Geom, Filter: c.Filter, Bias: c.Bias, gFilter: c.gFilter, gBias: c.gBias}
}

// Dense is a fully connected layer: out = in·W + b with W {In, Out}.
type Dense struct {
	In, Out int
	W       *tensor.Tensor // {In, Out}
	B       *tensor.Tensor // {Out}

	gW, gB *tensor.Tensor
	lastIn *tensor.Tensor // the last Forward's input, owned by the layer below
	out    *tensor.Tensor
	dIn    *tensor.Tensor
}

// NewDense constructs a dense layer with He-initialized weights.
func NewDense(in, out int, rng *rand.Rand) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: dense dims must be positive, got %d->%d", in, out)
	}
	std := math.Sqrt(2.0 / float64(in))
	w := tensor.New(in, out)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64() * std)
	}
	return &Dense{In: in, Out: out, W: w, B: tensor.New(out), gW: tensor.New(in, out), gB: tensor.New(out)}, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense%dx%d", d.In, d.Out) }

// OutShape implements Layer.
func (d *Dense) OutShape() []int { return []int{d.Out} }

// Forward implements Layer.
func (d *Dense) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if in.Len() != d.In {
		return nil, fmt.Errorf("nn: %s input volume %d, want %d", d.Name(), in.Len(), d.In)
	}
	if d.out == nil {
		d.out = tensor.New(d.Out)
	}
	tensor.MatMulInto(d.out.Data, in.Data, d.W.Data, 1, d.In, d.Out)
	for i := range d.out.Data {
		d.out.Data[i] += d.B.Data[i]
	}
	d.lastIn = in
	return d.out, nil
}

// checkGrad validates a backward-pass input.
func (d *Dense) checkGrad(gradOut *tensor.Tensor) error {
	if gradOut.Len() != d.Out {
		return fmt.Errorf("nn: %s gradOut volume %d, want %d", d.Name(), gradOut.Len(), d.Out)
	}
	if d.lastIn == nil {
		return fmt.Errorf("nn: %s gradient before Forward", d.Name())
	}
	return nil
}

// InputGrad implements Layer: dIn = gradOut · Wᵀ.
func (d *Dense) InputGrad(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if err := d.checkGrad(gradOut); err != nil {
		return nil, err
	}
	if d.dIn == nil {
		d.dIn = tensor.New(d.In)
	}
	tensor.MatMulTransB(d.dIn.Data, gradOut.Data, d.W.Data, 1, d.Out, d.In)
	return d.dIn, nil
}

// record implements trainable: copies of the input and of gradOut, whose
// outer product accumulate adds.
func (d *Dense) record(gradOut *tensor.Tensor, rec *gradRecord) error {
	if err := d.checkGrad(gradOut); err != nil {
		return err
	}
	rec.x = append(rec.x[:0], d.lastIn.Data...)
	rec.g = append(rec.g[:0], gradOut.Data...)
	return nil
}

// accumulate implements trainable: dW += inᵀ·gradOut (outer product,
// skipping zero inputs), dB += gradOut.
func (d *Dense) accumulate(rec *gradRecord) {
	for i, iv := range rec.x {
		if iv == 0 {
			continue
		}
		row := d.gW.Data[i*d.Out : (i+1)*d.Out]
		for j, gv := range rec.g {
			row[j] += iv * gv
		}
	}
	for j, gv := range rec.g {
		d.gB.Data[j] += gv
	}
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: d.Name() + ".w", Value: d.W, Grad: d.gW},
		{Name: d.Name() + ".b", Value: d.B, Grad: d.gB},
	}
}

func (d *Dense) replica() Layer {
	return &Dense{In: d.In, Out: d.Out, W: d.W, B: d.B, gW: d.gW, gB: d.gB}
}

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	shape    []int
	keep     []uint32 // per element: all ones where the last input passed, else 0
	out, dIn *tensor.Tensor
}

// NewReLU constructs a ReLU for the given input shape.
func NewReLU(shape []int) *ReLU {
	return &ReLU{shape: append([]int(nil), shape...)}
}

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutShape implements Layer.
func (r *ReLU) OutShape() []int { return r.shape }

// Forward implements Layer. An element passes, bits and all, unless it is
// below zero, so −0 and NaN pass too; an element below zero becomes +0.
// Activations change sign unpredictably, so the loop has no jump: the
// comparison compiles to a flag set, and the element's bits are masked.
func (r *ReLU) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	r.out = like(r.out, in)
	if len(r.keep) != len(in.Data) {
		r.keep = make([]uint32, len(in.Data))
	}
	out, keep := r.out.Data[:len(in.Data)], r.keep[:len(in.Data)]
	for i, v := range in.Data {
		var neg uint32
		if v < 0 {
			neg = 1
		}
		m := neg - 1
		keep[i] = m
		out[i] = math.Float32frombits(math.Float32bits(v) & m)
	}
	return r.out, nil
}

// InputGrad implements Layer: the gradient passes where the input did and
// is +0 elsewhere.
func (r *ReLU) InputGrad(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if len(r.keep) != gradOut.Len() {
		return nil, fmt.Errorf("nn: relu gradient before Forward or shape changed")
	}
	r.dIn = like(r.dIn, gradOut)
	dIn, keep := r.dIn.Data[:len(gradOut.Data)], r.keep[:len(gradOut.Data)]
	for i, v := range gradOut.Data {
		dIn[i] = math.Float32frombits(math.Float32bits(v) & keep[i])
	}
	return r.dIn, nil
}

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

func (r *ReLU) replica() Layer { return NewReLU(r.shape) }

// MaxPool2 is 2×2/stride-2 max pooling over HWC input.
type MaxPool2 struct {
	inShape []int
	arg     []int32 // argmax of the last Forward; nil before the first
	out     *tensor.Tensor
	dIn     *tensor.Tensor
}

// NewMaxPool2 constructs the pool for the given HWC input shape.
func NewMaxPool2(inShape []int) (*MaxPool2, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("nn: maxpool needs HWC input shape, got %v", inShape)
	}
	return &MaxPool2{inShape: append([]int(nil), inShape...)}, nil
}

// Name implements Layer.
func (m *MaxPool2) Name() string { return "maxpool2" }

// OutShape implements Layer.
func (m *MaxPool2) OutShape() []int {
	return []int{m.inShape[0] / 2, m.inShape[1] / 2, m.inShape[2]}
}

// Forward implements Layer. The input must have the configured shape.
func (m *MaxPool2) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if !slices.Equal(in.Shape, m.inShape) {
		return nil, fmt.Errorf("nn: maxpool input shape %v, want %v", in.Shape, m.inShape)
	}
	if m.out == nil {
		m.out = tensor.New(m.OutShape()...)
		m.arg = make([]int32, m.out.Len())
	}
	if err := tensor.MaxPool2Into(m.out, m.arg, in); err != nil {
		return nil, err
	}
	return m.out, nil
}

// InputGrad implements Layer: each gradient flows back to its window's
// argmax.
func (m *MaxPool2) InputGrad(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if m.arg == nil {
		return nil, fmt.Errorf("nn: maxpool gradient before Forward")
	}
	if gradOut.Len() != len(m.arg) {
		return nil, fmt.Errorf("nn: maxpool gradOut volume %d, want %d", gradOut.Len(), len(m.arg))
	}
	if m.dIn == nil {
		m.dIn = tensor.New(m.inShape...)
	}
	m.dIn.Zero()
	for o, src := range m.arg {
		m.dIn.Data[src] += gradOut.Data[o]
	}
	return m.dIn, nil
}

// Params implements Layer.
func (m *MaxPool2) Params() []Param { return nil }

func (m *MaxPool2) replica() Layer { return &MaxPool2{inShape: m.inShape} }

// Flatten reshapes an HWC tensor to rank-1. It exists so the network's
// layer list mirrors the textbook CNN architecture. Its outputs are views
// of its inputs.
type Flatten struct {
	inShape []int
	out     tensor.Tensor
	dIn     tensor.Tensor
}

// NewFlatten constructs a flatten stage for the given input shape.
func NewFlatten(inShape []int) *Flatten {
	f := &Flatten{inShape: append([]int(nil), inShape...)}
	f.dIn.Shape = f.inShape
	return f
}

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// OutShape implements Layer.
func (f *Flatten) OutShape() []int { return []int{tensor.Volume(f.inShape)} }

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(f.out.Shape) != 1 || f.out.Shape[0] != in.Len() {
		f.out.Shape = []int{in.Len()}
	}
	f.out.Data = in.Data
	return &f.out, nil
}

// InputGrad implements Layer.
func (f *Flatten) InputGrad(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if gradOut.Len() != tensor.Volume(f.inShape) {
		return nil, fmt.Errorf("nn: flatten gradOut volume %d, want %d", gradOut.Len(), tensor.Volume(f.inShape))
	}
	f.dIn.Data = gradOut.Data
	return &f.dIn, nil
}

// Params implements Layer.
func (f *Flatten) Params() []Param { return nil }

func (f *Flatten) replica() Layer { return NewFlatten(f.inShape) }

package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// Network is a sequential stack of layers ending in logits; softmax is
// applied by the loss (training) or by Predict (inference). A network's
// layers cache the last sample they saw, so one network runs one sample
// at a time; Train and Accuracy spread samples over replicas of it.
type Network struct {
	InShape []int
	Layers  []Layer
	Classes int
}

// Arch describes one of the two CNN architectures from the paper's
// evaluation: a small convnet for the MNIST-like dataset and a slightly
// larger one for the CIFAR-like dataset.
type Arch struct {
	Name          string
	InH, InW, InC int
	Conv1, Conv2  int // output channels of the two conv blocks
	Kernel        int
	Classes       int
}

// MNISTArch is the reference architecture for 28×28×1 digit images.
func MNISTArch() Arch {
	return Arch{Name: "mnist-cnn", InH: 28, InW: 28, InC: 1, Conv1: 8, Conv2: 16, Kernel: 3, Classes: 10}
}

// CIFARArch is the reference architecture for 32×32×3 colour images.
func CIFARArch() Arch {
	return Arch{Name: "cifar-cnn", InH: 32, InW: 32, InC: 3, Conv1: 16, Conv2: 32, Kernel: 3, Classes: 10}
}

// Build constructs the conv-relu-pool ×2 + dense network for the
// architecture, with weights drawn from rng.
func Build(a Arch, rng *rand.Rand) (*Network, error) {
	if a.Classes <= 1 {
		return nil, fmt.Errorf("nn: architecture needs at least 2 classes, got %d", a.Classes)
	}
	var layers []Layer

	g1 := tensor.ConvGeom{InH: a.InH, InW: a.InW, InC: a.InC, K: a.Kernel, Stride: 1, Pad: 0, OutC: a.Conv1}
	c1, err := NewConv2D(g1, rng)
	if err != nil {
		return nil, fmt.Errorf("nn: conv1: %w", err)
	}
	layers = append(layers, c1, NewReLU(c1.OutShape()))
	p1, err := NewMaxPool2(c1.OutShape())
	if err != nil {
		return nil, fmt.Errorf("nn: pool1: %w", err)
	}
	layers = append(layers, p1)

	s1 := p1.OutShape()
	g2 := tensor.ConvGeom{InH: s1[0], InW: s1[1], InC: s1[2], K: a.Kernel, Stride: 1, Pad: 0, OutC: a.Conv2}
	c2, err := NewConv2D(g2, rng)
	if err != nil {
		return nil, fmt.Errorf("nn: conv2: %w", err)
	}
	layers = append(layers, c2, NewReLU(c2.OutShape()))
	p2, err := NewMaxPool2(c2.OutShape())
	if err != nil {
		return nil, fmt.Errorf("nn: pool2: %w", err)
	}
	layers = append(layers, p2)

	flat := NewFlatten(p2.OutShape())
	layers = append(layers, flat)
	d, err := NewDense(flat.OutShape()[0], a.Classes, rng)
	if err != nil {
		return nil, fmt.Errorf("nn: dense: %w", err)
	}
	layers = append(layers, d)

	return &Network{InShape: []int{a.InH, a.InW, a.InC}, Layers: layers, Classes: a.Classes}, nil
}

// Forward runs the network on one sample and returns the logits, which
// live in the last layer's buffer until the next Forward.
func (n *Network) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	x := in
	for _, l := range n.Layers {
		var err error
		x, err = l.Forward(x)
		if err != nil {
			return nil, fmt.Errorf("nn: forward through %s: %w", l.Name(), err)
		}
	}
	return x, nil
}

// Predict returns the argmax class and the softmax probabilities.
func (n *Network) Predict(in *tensor.Tensor) (int, *tensor.Tensor, error) {
	logits, err := n.Forward(in)
	if err != nil {
		return 0, nil, err
	}
	probs := tensor.Softmax(logits)
	cls, _ := probs.MaxIndex()
	return cls, probs, nil
}

// backward records each trainable layer's parameter gradient in recs
// (indexed like Layers) and propagates the input gradient down to layer 1:
// nothing consumes the gradient with respect to the network's input.
func (n *Network) backward(g *tensor.Tensor, recs []gradRecord) error {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		l := n.Layers[i]
		if t, ok := l.(trainable); ok {
			if err := t.record(g, &recs[i]); err != nil {
				return fmt.Errorf("nn: backward through %s: %w", l.Name(), err)
			}
		}
		if i == 0 {
			break
		}
		var err error
		if g, err = l.InputGrad(g); err != nil {
			return fmt.Errorf("nn: backward through %s: %w", l.Name(), err)
		}
	}
	return nil
}

// accumulate adds records made by backward into the Grad tensors.
func (n *Network) accumulate(recs []gradRecord) {
	for i, l := range n.Layers {
		if t, ok := l.(trainable); ok {
			t.accumulate(&recs[i])
		}
	}
}

// replicas returns k networks sharing n's parameters and gradient tensors:
// n itself, then k-1 replicas with caches of their own.
func (n *Network) replicas(k int) []*Network {
	nets := []*Network{n}
	for len(nets) < k {
		layers := make([]Layer, len(n.Layers))
		for i, l := range n.Layers {
			layers[i] = l.replica()
		}
		nets = append(nets, &Network{InShape: n.InShape, Layers: layers, Classes: n.Classes})
	}
	return nets
}

// parallel calls fn(w, i) for every i in [0, n), spread over workers
// goroutines that each claim the next unclaimed i; w is the claiming
// worker's index. Worker 0 is the calling goroutine, and parallel returns
// once every call has.
func parallel(workers, n int, fn func(w, i int)) {
	var next atomic.Int64
	run := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}

// Params returns all parameter/gradient pairs in layer order.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// lossGrad computes softmax cross-entropy loss for one sample and writes
// the gradient with respect to the logits (probs - onehot) into grad,
// which must have the logits' length.
func lossGrad(grad, logits *tensor.Tensor, label int) (float64, error) {
	if label < 0 || label >= logits.Len() {
		return 0, fmt.Errorf("nn: label %d out of range for %d logits", label, logits.Len())
	}
	tensor.SoftmaxInto(grad.Data, logits.Data)
	p := float64(grad.Data[label])
	if p < 1e-12 {
		p = 1e-12
	}
	grad.Data[label] -= 1
	return -math.Log(p), nil
}

// SGD is stochastic gradient descent with classical momentum and optional
// L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*tensor.Tensor][]float32
}

// NewSGD constructs the optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*tensor.Tensor][]float32{}}
}

// Step applies one update to every parameter given its accumulated
// gradient scaled by 1/batchSize, then zeroes the gradients.
func (o *SGD) Step(params []Param, batchSize int) {
	if batchSize < 1 {
		batchSize = 1
	}
	inv := float32(1.0 / float64(batchSize))
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	for _, p := range params {
		vel, ok := o.velocity[p.Value]
		if !ok {
			vel = make([]float32, p.Value.Len())
			o.velocity[p.Value] = vel
		}
		for i := range p.Value.Data {
			g := p.Grad.Data[i]*inv + wd*p.Value.Data[i]
			vel[i] = mu*vel[i] - lr*g
			p.Value.Data[i] += vel[i]
		}
		p.Grad.Zero()
	}
}

// TrainConfig bundles the training hyperparameters.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      int64
	// Progress, when non-nil, receives per-epoch loss and accuracy.
	Progress func(epoch int, loss, acc float64)
}

// slot is one batch position: the outcome of the sample trained there,
// held until the serial phase folds it in.
type slot struct {
	recs    []gradRecord
	grad    *tensor.Tensor // dL/d(logits)
	loss    float64
	correct bool
	err     error
}

// trainSample runs forward, loss and backward for one sample on net,
// recording its gradients and outcome in s.
func (s *slot) trainSample(net *Network, in *tensor.Tensor, label int) {
	logits, err := net.Forward(in)
	if err != nil {
		s.err = err
		return
	}
	cls, _ := logits.MaxIndex()
	s.correct = cls == label
	s.grad = like(s.grad, logits)
	if s.loss, s.err = lossGrad(s.grad, logits, label); s.err != nil {
		return
	}
	s.err = net.backward(s.grad, s.recs)
}

// Train fits the network on the given samples with minibatch SGD. Inputs
// and labels must be parallel slices; inputs are single samples (no batch
// dim).
//
// Each minibatch runs in two phases. In the parallel phase its samples are
// spread over min(GOMAXPROCS, BatchSize) workers, each a replica of the
// network that shares the weights (read-only here) but not the layer
// caches; every sample records its loss and parameter gradients in its
// batch slot. In the serial phase the slots are folded in in sample order,
// with the same float32 adds into each gradient a one-sample-at-a-time
// loop makes, and the optimizer steps. The result is byte-identical at
// every worker count, and a failing sample reports the error of the first
// failure in sample order.
func Train(n *Network, inputs []*tensor.Tensor, labels []int, cfg TrainConfig) error {
	if len(inputs) == 0 || len(inputs) != len(labels) {
		return fmt.Errorf("nn: Train needs parallel non-empty inputs/labels, got %d/%d", len(inputs), len(labels))
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.05
	}
	opt := NewSGD(cfg.LR, cfg.Momentum, 0)
	params := n.Params()
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	nets := n.replicas(min(runtime.GOMAXPROCS(0), cfg.BatchSize))
	slots := make([]slot, min(cfg.BatchSize, len(inputs)))
	for i := range slots {
		slots[i].recs = make([]gradRecord, len(n.Layers))
	}
	var batch []int
	trainSlot := func(w, i int) { slots[i].trainSample(nets[w], inputs[batch[i]], labels[batch[i]]) }
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss, correct := 0.0, 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch = order[start:min(start+cfg.BatchSize, len(order))]
			parallel(len(nets), len(batch), trainSlot)
			for i := range batch {
				s := &slots[i]
				if s.err != nil {
					return s.err
				}
				if s.correct {
					correct++
				}
				totalLoss += s.loss
				n.accumulate(s.recs)
			}
			opt.Step(params, len(batch))
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, totalLoss/float64(len(order)), float64(correct)/float64(len(order)))
		}
	}
	return nil
}

// Accuracy evaluates classification accuracy on a labelled set, spreading
// the samples over min(GOMAXPROCS, len(inputs)) replicas of the network.
// A failing sample reports the error of the first failure in sample order.
func Accuracy(n *Network, inputs []*tensor.Tensor, labels []int) (float64, error) {
	if len(inputs) == 0 || len(inputs) != len(labels) {
		return 0, fmt.Errorf("nn: Accuracy needs parallel non-empty inputs/labels")
	}
	nets := n.replicas(min(runtime.GOMAXPROCS(0), len(inputs)))
	hits := make([]bool, len(inputs))
	errs := make([]error, len(inputs))
	parallel(len(nets), len(inputs), func(w, i int) {
		var cls int
		cls, _, errs[i] = nets[w].Predict(inputs[i])
		hits[i] = cls == labels[i]
	})
	correct := 0
	for i, hit := range hits {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if hit {
			correct++
		}
	}
	return float64(correct) / float64(len(inputs)), nil
}

// modelFile is the gob wire format for a trained network. Only weights and
// the architecture are persisted; optimizer state is not. The tensors are
// a slice in Params() order, never a map: gob walks maps in random order,
// and model bytes travel inside digested fabric specs, so the encoding
// must be a pure function of the weights.
type modelFile struct {
	Arch    Arch
	Tensors []modelTensor
}

// modelTensor is one parameter tensor; the name guards against loading
// a file into a network whose layers are laid out differently.
type modelTensor struct {
	Name string
	Data []float32
}

// Bounds on a decoded architecture. Model bytes cross process boundaries,
// so a hostile header must fail validation before Build allocates: both
// reference architectures (about 5k and 17k weights) sit far below them.
const (
	maxArchDim     = 1 << 12
	maxModelParams = 1 << 22
)

// validate checks that the architecture builds and stays within the
// codec's bounds, without allocating any of it.
func (a Arch) validate() error {
	for _, d := range []struct {
		name string
		v    int
	}{{"InH", a.InH}, {"InW", a.InW}, {"InC", a.InC}, {"Conv1", a.Conv1}, {"Conv2", a.Conv2}, {"Kernel", a.Kernel}, {"Classes", a.Classes}} {
		if d.v <= 0 || d.v > maxArchDim {
			return fmt.Errorf("nn: architecture %s = %d outside [1, %d]", d.name, d.v, maxArchDim)
		}
	}
	// conv (valid, stride 1) then 2×2 pool, twice; every stage must keep
	// a non-empty output.
	h1, w1 := (a.InH-a.Kernel+1)/2, (a.InW-a.Kernel+1)/2
	h2, w2 := (h1-a.Kernel+1)/2, (w1-a.Kernel+1)/2
	if h2 <= 0 || w2 <= 0 {
		return fmt.Errorf("nn: architecture %dx%d input is too small for two %dx%d conv+pool blocks", a.InH, a.InW, a.Kernel, a.Kernel)
	}
	k2 := a.Kernel * a.Kernel
	params := (k2*a.InC+1)*a.Conv1 + (k2*a.Conv1+1)*a.Conv2 + (h2*w2*a.Conv2+1)*a.Classes
	if params > maxModelParams {
		return fmt.Errorf("nn: architecture has %d parameters, above the %d limit", params, maxModelParams)
	}
	return nil
}

// SaveModel serializes the network (built from arch) to w. The bytes are
// a deterministic function of arch and the weights.
func SaveModel(w io.Writer, a Arch, n *Network) error {
	params := n.Params()
	mf := modelFile{Arch: a, Tensors: make([]modelTensor, len(params))}
	for i, p := range params {
		mf.Tensors[i] = modelTensor{Name: p.Name, Data: p.Value.Data}
	}
	if err := gob.NewEncoder(w).Encode(&mf); err != nil {
		return fmt.Errorf("nn: encoding model: %w", err)
	}
	return nil
}

// LoadModel rebuilds a network from a stream written by SaveModel. The
// stream is untrusted: the architecture is validated before anything is
// built, and the tensors must match the built network's parameters one
// for one, in order, name and length.
func LoadModel(r io.Reader) (Arch, *Network, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return Arch{}, nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if err := mf.Arch.validate(); err != nil {
		return Arch{}, nil, err
	}
	n, err := Build(mf.Arch, rand.New(rand.NewSource(0)))
	if err != nil {
		return Arch{}, nil, err
	}
	params := n.Params()
	if len(mf.Tensors) != len(params) {
		return Arch{}, nil, fmt.Errorf("nn: model file has %d tensors, want %d", len(mf.Tensors), len(params))
	}
	for i, p := range params {
		t := mf.Tensors[i]
		if t.Name != p.Name {
			return Arch{}, nil, fmt.Errorf("nn: model tensor %d is %q, want %q", i, t.Name, p.Name)
		}
		if len(t.Data) != p.Value.Len() {
			return Arch{}, nil, fmt.Errorf("nn: tensor %q has %d values, want %d", p.Name, len(t.Data), p.Value.Len())
		}
		copy(p.Value.Data, t.Data)
	}
	return mf.Arch, n, nil
}

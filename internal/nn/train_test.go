package nn

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/raceinfo"
	"repro/internal/tensor"
)

// separableData builds the bright-top vs bright-bottom toy problem.
func separableData(rng *rand.Rand, n int) ([]*tensor.Tensor, []int) {
	var inputs []*tensor.Tensor
	var labels []int
	for i := 0; i < n; i++ {
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
	return inputs, labels
}

// detArch is the network the determinism tests train: two conv blocks,
// so both a layer-0 conv and an inner conv carry bias gradients.
var detArch = Arch{Name: "det", InH: 12, InW: 12, InC: 1, Conv1: 4, Conv2: 6, Kernel: 3, Classes: 2}

// trainRun is what one Train call leaves behind: the SHA-256 of the
// saved model, every Progress report and the returned error.
type trainRun struct {
	digest   string
	progress [][2]float64
	err      error
}

// trainAt trains a fresh detArch network on n separable samples at the
// given GOMAXPROCS, and reports the outcome. Each sample listed in bad
// is replaced by a wrong-shaped image, the i-th one 11-i rows high, so
// the error names which of them failed.
func trainAt(t *testing.T, procs, n int, bad ...int) trainRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rng := rand.New(rand.NewSource(21))
	net, err := Build(detArch, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs, labels := separableData(rng, n)
	for i, k := range bad {
		inputs[k] = tensor.New(11-i, 12, 1)
	}
	var run trainRun
	run.err = Train(net, inputs, labels, TrainConfig{
		Epochs: 3, BatchSize: 8, LR: 0.05, Momentum: 0.9, Seed: 4,
		Progress: func(_ int, loss, acc float64) { run.progress = append(run.progress, [2]float64{loss, acc}) },
	})
	sum := sha256.Sum256(saveBytes(t, detArch, net))
	run.digest = hex.EncodeToString(sum[:])
	return run
}

// The digests below are what the one-sample-at-a-time training loop
// produced before training went parallel. A worker count that changes
// one bit of the weights, or a gradient reduction that re-associates a
// sum (for example adding per-sample partial sums of the conv bias
// instead of its gradOut rows), fails against them.
const (
	// 48 samples: six full batches of 8 per epoch.
	digestFullBatches = "9dff5f35acdc40cbd52a6fa1204f34ec045937076e39cc429874194ba6523b5f"
	// 45 samples: the last batch of every epoch holds 5.
	digestPartialBatch = "5376f4b887c7a178e6ec251688fc60bc29cfb2166efb14acd3826408c2814bce"
	// 48 samples, samples 41 and 19 wrong-shaped: they shuffle to
	// positions 5 and 7 of the third batch of epoch 0, so Train stops
	// after two steps.
	digestFailedInBatch3 = "82c80018cf4e05e5371b6b65c2e80d4f20236ab03ebba86910ac55a2e74d7107"
)

// TestTrainBytesIndependentOfWorkers pins Train's output at 1, 2 and 7
// workers: the saved model bytes and every Progress value must be
// identical, and equal to the serial loop's, whether or not the dataset
// fills its last batch.
func TestTrainBytesIndependentOfWorkers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		digest string
	}{
		{"full batches", 48, digestFullBatches},
		{"partial final batch", 45, digestPartialBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first trainRun
			for _, procs := range []int{1, 2, 7} {
				run := trainAt(t, procs, tc.n)
				if run.err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, run.err)
				}
				if run.digest != tc.digest {
					t.Errorf("GOMAXPROCS %d: model digest %s, want %s", procs, run.digest, tc.digest)
				}
				if procs == 1 {
					first = run
					continue
				}
				for e, p := range run.progress {
					if p != first.progress[e] {
						t.Errorf("GOMAXPROCS %d: epoch %d progress (loss, acc) = %v, at 1 worker %v", procs, e, p, first.progress[e])
					}
				}
			}
		})
	}
}

// TestTrainErrorIndependentOfWorkers: when samples fail mid-batch, Train
// returns the error of the first of them in sample order at every worker
// count, and leaves the weights of the steps taken before that batch.
func TestTrainErrorIndependentOfWorkers(t *testing.T) {
	for _, procs := range []int{1, 2, 7} {
		run := trainAt(t, procs, 48, 41, 19)
		const want = "nn: forward through conv3x3x4: nn: conv3x3x4 input volume 132, want 144"
		if run.err == nil || run.err.Error() != want {
			t.Errorf("GOMAXPROCS %d: error %v, want %q", procs, run.err, want)
		}
		if run.digest != digestFailedInBatch3 {
			t.Errorf("GOMAXPROCS %d: model digest after the error %s, want %s", procs, run.digest, digestFailedInBatch3)
		}
	}
}

// TestTrainLeavesNoGoroutines: Train's workers are gone when it returns,
// whether it succeeded or failed.
func TestTrainLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		bad    []int
		digest string
	}{
		{nil, digestFullBatches},
		{[]int{41, 19}, digestFailedInBatch3},
	} {
		run := trainAt(t, 7, 48, tc.bad...)
		if (run.err != nil) != (len(tc.bad) > 0) {
			t.Fatalf("bad samples %v: error %v", tc.bad, run.err)
		}
		if run.digest != tc.digest {
			t.Errorf("bad samples %v: model digest %s, want %s", tc.bad, run.digest, tc.digest)
		}
		// A worker that has returned may take a moment to be reaped.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("bad samples %v: %d goroutines after Train, %d before", tc.bad, n, before)
		}
	}
}

// TestTrainSteadyStateAllocs guards buffer reuse: once the workers and
// batch slots exist, training one more sample must not allocate. The
// marginal cost of extra epochs excludes Train's set-up and has to stay
// below one allocation per trained sample (per-batch scheduling costs a
// few per batch, amortized over its samples).
func TestTrainSteadyStateAllocs(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(5))
	inputs, labels := separableData(rng, 96)
	mallocs := func(epochs int) uint64 {
		net, err := Build(detArch, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := Train(net, inputs, labels, TrainConfig{Epochs: epochs, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	one, five := mallocs(1), mallocs(5)
	perSample := (float64(five) - float64(one)) / float64(4*len(inputs))
	t.Logf("Train: %d allocations at 1 epoch, %d at 5; %.3f per extra sample", one, five, perSample)
	if perSample >= 1 {
		t.Fatalf("steady-state Train makes %.2f allocations per sample, want < 1", perSample)
	}
}

// TestTrainConverges guards against silent divergence of SGD training:
// a few epochs on the separable problem must reach a low loss.
func TestTrainConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	arch := Arch{Name: "t", InH: 12, InW: 12, InC: 1, Conv1: 3, Conv2: 3, Kernel: 3, Classes: 2}
	n, err := Build(arch, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs, labels := separableData(rng, 80)
	var lastLoss float64
	err = Train(n, inputs, labels, TrainConfig{
		Epochs: 5, BatchSize: 8, LR: 0.05, Momentum: 0.9, Seed: 2,
		Progress: func(_ int, loss, _ float64) { lastLoss = loss },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastLoss > 0.4 {
		t.Fatalf("final loss = %v, did not converge", lastLoss)
	}
}

package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestMNISTLikeShapesAndLabels(t *testing.T) {
	train, test, err := MNISTLike(Config{PerClassTrain: 5, PerClassTest: 3, Classes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Samples) != 20 || len(test.Samples) != 12 {
		t.Fatalf("split sizes = %d/%d, want 20/12", len(train.Samples), len(test.Samples))
	}
	for _, sm := range train.Samples {
		if sm.Image.Shape[0] != 28 || sm.Image.Shape[1] != 28 || sm.Image.Shape[2] != 1 {
			t.Fatalf("mnist-like shape = %v", sm.Image.Shape)
		}
		if sm.Label < 0 || sm.Label >= 4 {
			t.Fatalf("label %d out of range", sm.Label)
		}
	}
}

func TestCIFARLikeShapesAndLabels(t *testing.T) {
	train, _, err := CIFARLike(Config{PerClassTrain: 4, PerClassTest: 2, Classes: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Samples) != 40 {
		t.Fatalf("train size = %d, want 40", len(train.Samples))
	}
	for _, sm := range train.Samples {
		if sm.Image.Shape[0] != 32 || sm.Image.Shape[1] != 32 || sm.Image.Shape[2] != 3 {
			t.Fatalf("cifar-like shape = %v", sm.Image.Shape)
		}
	}
}

func TestPixelsInUnitRange(t *testing.T) {
	train, _, _ := MNISTLike(Config{PerClassTrain: 3, PerClassTest: 1, Seed: 3, Noise: 0.3})
	ctrain, _, _ := CIFARLike(Config{PerClassTrain: 3, PerClassTest: 1, Seed: 3, Noise: 0.3})
	for _, set := range []*Set{train, ctrain} {
		for _, sm := range set.Samples {
			for i, v := range sm.Image.Data {
				if v < 0 || v > 1 {
					t.Fatalf("%s pixel %d = %v outside [0,1]", set.Name, i, v)
				}
			}
		}
	}
}

func TestDeterminismBySeed(t *testing.T) {
	a, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Seed: 42})
	b, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Seed: 42})
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Samples[i].Image.Data {
			if a.Samples[i].Image.Data[j] != b.Samples[i].Image.Data[j] {
				t.Fatal("pixels differ across identical seeds")
			}
		}
	}
	c, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Seed: 43})
	same := true
	for j := range a.Samples[0].Image.Data {
		if a.Samples[0].Image.Data[j] != c.Samples[0].Image.Data[j] {
			same = false
			break
		}
	}
	if same && a.Samples[0].Label == c.Samples[0].Label {
		t.Fatal("different seeds produced identical first sample")
	}
}

func TestClassesAreStatisticallyDistinct(t *testing.T) {
	// Mean images of different digit classes must differ substantially;
	// this is the property the whole paper depends on.
	train, _, _ := MNISTLike(Config{PerClassTrain: 20, PerClassTest: 1, Classes: 4, Seed: 7})
	means := make([][]float64, 4)
	counts := make([]int, 4)
	for i := range means {
		means[i] = make([]float64, 28*28)
	}
	for _, sm := range train.Samples {
		for j, v := range sm.Image.Data {
			means[sm.Label][j] += float64(v)
		}
		counts[sm.Label]++
	}
	for c := 0; c < 4; c++ {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			var dist float64
			for j := range means[a] {
				d := means[a][j] - means[b][j]
				dist += d * d
			}
			if math.Sqrt(dist) < 1.0 {
				t.Errorf("mean images of classes %d and %d too similar (L2 %.3f)", a, b, math.Sqrt(dist))
			}
		}
	}
}

func TestWithinClassVariation(t *testing.T) {
	// Jitter must make samples within a class differ (otherwise there is no
	// within-class distribution for the t-test).
	train, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Classes: 1, Seed: 9})
	a, b := train.Samples[0].Image, train.Samples[1].Image
	diff := 0.0
	for j := range a.Data {
		d := float64(a.Data[j] - b.Data[j])
		diff += d * d
	}
	if math.Sqrt(diff) < 0.1 {
		t.Fatalf("within-class samples nearly identical (L2 %.4f)", math.Sqrt(diff))
	}
}

func TestFilterAndAccessors(t *testing.T) {
	train, _, _ := MNISTLike(Config{PerClassTrain: 3, PerClassTest: 1, Classes: 5, Seed: 4})
	f := train.Filter(1, 3)
	if len(f.Samples) != 6 {
		t.Fatalf("filtered size = %d, want 6", len(f.Samples))
	}
	for _, sm := range f.Samples {
		if sm.Label != 1 && sm.Label != 3 {
			t.Fatalf("filter leaked label %d", sm.Label)
		}
	}
	// Classes must report the kept-class count, not the unfiltered one:
	// chance levels and class iteration derive from it.
	if f.Classes != 2 {
		t.Fatalf("filtered Classes = %d, want 2 (unfiltered set has %d)", f.Classes, train.Classes)
	}
	// Requested classes absent from the set do not inflate the count; an
	// empty filter reports zero classes.
	if g := train.Filter(1, 3, 97); g.Classes != 2 {
		t.Fatalf("Classes with absent request = %d, want 2", g.Classes)
	}
	if e := train.Filter(42); e.Classes != 0 || len(e.Samples) != 0 {
		t.Fatalf("empty filter: Classes=%d samples=%d, want 0/0", e.Classes, len(e.Samples))
	}
	if len(train.Inputs()) != len(train.Labels()) {
		t.Fatal("Inputs/Labels length mismatch")
	}
	by := train.ByClass()
	total := 0
	for _, idxs := range by {
		total += len(idxs)
	}
	if total != len(train.Samples) {
		t.Fatal("ByClass does not partition the set")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Classes != 10 || c.PerClassTrain != 100 || c.PerClassTest != 20 || c.Noise != 0.05 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	c = Config{Classes: 99}.withDefaults()
	if c.Classes != 10 {
		t.Fatalf("Classes=99 not clamped: %d", c.Classes)
	}
}

func TestDescribe(t *testing.T) {
	train, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Classes: 2, Seed: 1})
	s := Describe(train)
	if s == "" {
		t.Fatal("empty description")
	}
}

func TestQuickDigitImagesAlwaysValid(t *testing.T) {
	f := func(seed int64, cls uint8) bool {
		train, _, err := MNISTLike(Config{PerClassTrain: 1, PerClassTest: 1, Classes: 1 + int(cls%10), Seed: seed})
		if err != nil {
			return false
		}
		for _, sm := range train.Samples {
			nz := sm.Image.CountNonZero(1e-6)
			// A glyph must paint something but not everything.
			if nz == 0 || nz == sm.Image.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawLineRejectsNonFiniteEndpoints(t *testing.T) {
	// drawLine's int(float) conversions rely on finite endpoints; the
	// boundary guard must turn NaN/Inf inputs into a no-op rather than
	// letting platform-defined int(NaN) indices touch the image.
	cases := [][4]float64{
		{math.NaN(), 5, 20, 20},
		{5, math.NaN(), 20, 20},
		{5, 5, math.Inf(1), 20},
		{5, 5, 20, math.Inf(-1)},
	}
	for _, c := range cases {
		img := tensor.New(28, 28, 1)
		drawLine(img, c[0], c[1], c[2], c[3], 1.5)
		for i, v := range img.Data {
			if v != 0 {
				t.Fatalf("drawLine(%v) wrote pixel %d = %v; want untouched image", c, i, v)
			}
		}
	}
}

func TestDrawLineFiniteStillDraws(t *testing.T) {
	// The guard must not swallow legitimate strokes.
	img := tensor.New(28, 28, 1)
	drawLine(img, 4, 4, 24, 24, 1.5)
	sum := float32(0)
	for _, v := range img.Data {
		sum += v
	}
	if sum == 0 {
		t.Fatal("drawLine(finite endpoints) drew nothing")
	}
}

// TestMNISTLikeDefaultPixelsDigest pins the bytes of the default MNIST
// scenario's splits (120 train and 60 test samples per class, seed 1):
// each sample's label and pixel bits, train split then test split. The
// victim every golden runs on is trained on exactly these pixels, so a
// glyph renderer that moves one bit fails here before it fails a golden.
func TestMNISTLikeDefaultPixelsDigest(t *testing.T) {
	train, test, err := MNISTLike(Config{PerClassTrain: 120, PerClassTest: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [4]byte
	for _, set := range []*Set{train, test} {
		for _, sm := range set.Samples {
			binary.LittleEndian.PutUint32(b[:], uint32(sm.Label))
			h.Write(b[:])
			for _, v := range sm.Image.Data {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
	}
	const want = "89df5837cfd6df3c14ce1661d02e2e94dc0c2600e79e583816ac251340d217b3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("default MNIST-like pixel digest %s, want %s", got, want)
	}
}

// refDrawLine is drawLine as first written: every pixel of every stamp
// recomputes its offset's weight and the rounded centre.
func refDrawLine(img *tensor.Tensor, x0, y0, x1, y1, thick float64) {
	steps := int(math.Hypot(x1-x0, y1-y0)*2) + 1
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		cx, cy := x0+(x1-x0)*t, y0+(y1-y0)*t
		lo := int(math.Floor(-thick))
		hi := int(math.Ceil(thick))
		for oy := lo; oy <= hi; oy++ {
			for ox := lo; ox <= hi; ox++ {
				px, py := int(math.Round(cx))+ox, int(math.Round(cy))+oy
				if px < 0 || px >= 28 || py < 0 || py >= 28 {
					continue
				}
				d := math.Hypot(float64(ox), float64(oy))
				v := 1.0 - d/(thick+0.5)
				if v <= 0 {
					continue
				}
				idx := (py*28 + px)
				if float32(v) > img.Data[idx] {
					img.Data[idx] = float32(v)
				}
			}
		}
	}
}

// TestDrawLineMatchesReference compares drawLine with the per-pixel
// reference bit for bit over random segments on and off the image, at
// the glyph thicknesses and well beyond them: thin, zero and negative
// strokes, and strokes wider than the image whose centres lie outside it.
func TestDrawLineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	thicks := []float64{-1.5, -1, -0.7, -0.5, -0.2, 0, 0.3, 1, 1.25, 1.8, 2, 3.7, 12, 27, 27.5, 31, 45}
	for trial := 0; trial < 400; trial++ {
		span := 28.0
		if trial%4 == 0 {
			span = 120 // centres well off the image
		}
		c := [4]float64{}
		for i := range c {
			c[i] = rng.Float64()*span - (span-28)/2
		}
		thick := thicks[trial%len(thicks)]
		if trial%3 == 0 {
			thick += rng.Float64()
		}
		got, want := tensor.New(28, 28, 1), tensor.New(28, 28, 1)
		drawLine(got, c[0], c[1], c[2], c[3], thick)
		refDrawLine(want, c[0], c[1], c[2], c[3], thick)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("drawLine(%v, thick %v) pixel %d = %v, reference %v", c, thick, i, got.Data[i], want.Data[i])
			}
		}
	}
}

package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// classFactory adapts the test TargetFactory to the class-aware form
// Stream takes.
func classFactory(tb testing.TB, f TargetFactory) ClassTargetFactory {
	tb.Helper()
	return func(_ int, seed int64) (core.Target, error) { return f(seed) }
}

// streamKey flattens one consumed window into a comparable record.
type streamKey struct {
	Shard, Class, Start int
	Obs                 []float64
}

// collectStream runs Stream over the standard small campaign and
// returns the consumed window sequence.
func collectStream(t *testing.T, workers int) []streamKey {
	t.Helper()
	p := newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: 2}, Config{Workers: workers, ShardRuns: 4})
	pools := testPools(3, 3)
	events := p.ev.Config().Events
	var seq []streamKey
	stopped, err := p.Stream(context.Background(), classFactory(t, testFactory(t, testNet(t))), pools, func(w core.Window) error {
		k := streamKey{Shard: w.Shard, Class: w.Class, Start: w.Start}
		for _, prof := range w.Profiles {
			k.Obs = append(k.Obs, prof.Vector(events)...)
		}
		seq = append(seq, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stopped {
		t.Fatal("run-to-exhaustion stream reported stopped")
	}
	return seq
}

// TestStreamDeterministicOrderAcrossWorkers: the consumed window
// sequence — identity, order and observations — must be bit-identical
// at any worker count, and must follow the (start, class) stream order
// with windows at the measured-batch cadence.
func TestStreamDeterministicOrderAcrossWorkers(t *testing.T) {
	ref := collectStream(t, 1)

	// Shard plan order is (class, start); stream order is (start, class);
	// batch 2 → 2 windows per shard. Recompute the expected window
	// identities from the plan itself.
	var wantID []streamKey
	p := newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: 2}, Config{Workers: 1, ShardRuns: 4})
	shards, err := p.planShards(testPools(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range streamOrder(shards) {
		sh := shards[idx]
		for run := sh.Start; run < sh.Start+sh.Count; run += 2 {
			wantID = append(wantID, streamKey{Shard: sh.Index, Class: sh.Class, Start: run})
		}
	}
	if len(ref) != len(wantID) {
		t.Fatalf("%d windows consumed, want %d", len(ref), len(wantID))
	}
	for i, k := range ref {
		if k.Shard != wantID[i].Shard || k.Class != wantID[i].Class || k.Start != wantID[i].Start {
			t.Fatalf("window %d identity (%d,%d,%d), want (%d,%d,%d)",
				i, k.Shard, k.Class, k.Start, wantID[i].Shard, wantID[i].Class, wantID[i].Start)
		}
	}

	for _, workers := range []int{2, 8} {
		got := collectStream(t, workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: stream diverges from workers=1", workers)
		}
	}
}

// TestStreamMatchesBatchCollection: the streamed observations, placed
// at their (class, run) offsets, must equal CollectProfilesByClass's
// merge exactly — the stream is a re-ordering of the same campaign, not
// a different one.
func TestStreamMatchesBatchCollection(t *testing.T) {
	evCfg := core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: 2}
	cfg := Config{Workers: 2, ShardRuns: 4}
	pools := testPools(3, 3)
	net := testNet(t)

	p := newPipeline(t, evCfg, cfg)
	events := p.ev.Config().Events
	streamed := map[int][][]float64{}
	_, err := p.Stream(context.Background(), classFactory(t, testFactory(t, net)), pools, func(w core.Window) error {
		if streamed[w.Class] == nil {
			streamed[w.Class] = make([][]float64, p.ev.Config().RunsPerClass)
		}
		for i, prof := range w.Profiles {
			streamed[w.Class][w.Start+i] = prof.Vector(events)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	p2 := newPipeline(t, evCfg, cfg)
	byClass, err := p2.CollectProfiles(context.Background(), testFactory(t, net), pools)
	if err != nil {
		t.Fatal(err)
	}
	batch := map[int][][]float64{}
	for cls, profs := range byClass {
		batch[cls] = make([][]float64, len(profs))
		for i, prof := range profs {
			batch[cls][i] = prof.Vector(events)
		}
	}
	if !reflect.DeepEqual(streamed, batch) {
		t.Fatal("streamed observations diverge from batch collection")
	}
}

// TestStreamEarlyStop: ErrStop from the consumer ends the campaign
// without error, reports stopped=true, and does not deliver further
// windows.
func TestStreamEarlyStop(t *testing.T) {
	p := newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: 2}, Config{Workers: 4, ShardRuns: 4})
	consumed := 0
	stopped, err := p.Stream(context.Background(), classFactory(t, testFactory(t, testNet(t))), testPools(3, 3), func(core.Window) error {
		consumed++
		if consumed == 3 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("ErrStop did not report stopped")
	}
	if consumed != 3 {
		t.Fatalf("consumed %d windows after stop, want 3", consumed)
	}
}

// TestStreamConsumerErrorAborts: a non-sentinel consumer error aborts
// the campaign and is returned verbatim.
func TestStreamConsumerErrorAborts(t *testing.T) {
	p := newPipeline(t, core.Config{RunsPerClass: 8, WarmupRuns: 1, Batch: 2}, Config{Workers: 2, ShardRuns: 4})
	boom := fmt.Errorf("scoring failed")
	stopped, err := p.Stream(context.Background(), classFactory(t, testFactory(t, testNet(t))), testPools(2, 3), func(core.Window) error {
		return boom
	})
	if stopped {
		t.Fatal("consumer error reported stopped")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the consumer's error", err)
	}
}

// TestStreamCancellationTyped: an external context cancellation must
// surface as the typed *Cancelled error — distinguishable at the CLI
// layer from a campaign that simply ran out of budget — while still
// satisfying errors.Is(err, context.Canceled).
func TestStreamCancellationTyped(t *testing.T) {
	p := newPipeline(t, core.Config{RunsPerClass: 20, WarmupRuns: 1, Batch: 2}, Config{Workers: 2, ShardRuns: 4})
	ctx, cancel := context.WithCancel(context.Background())
	consumed := 0
	_, err := p.Stream(ctx, classFactory(t, testFactory(t, testNet(t))), testPools(2, 3), func(core.Window) error {
		consumed++
		if consumed == 2 {
			cancel()
		}
		return nil
	})
	var c *Cancelled
	if !errors.As(err, &c) {
		t.Fatalf("err = %v (%T), want *Cancelled", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("typed error does not unwrap to context.Canceled: %v", err)
	}
	if c.Stage == "" {
		t.Fatal("Cancelled.Stage empty")
	}
}

// gatedTarget runs gate before every classification, so a test can
// hold one shard mid-collection.
type gatedTarget struct {
	core.Target
	gate func()
}

func (g *gatedTarget) Classify(img *tensor.Tensor) (int, error) {
	g.gate()
	return g.Target.Classify(img)
}

// heldStream is a stream campaign — 3 classes × 3 shards of 4 runs,
// batch 1, so 4 windows per shard — whose head shard (the first in
// stream order) blocks in its first classification until release.
type heldStream struct {
	p       *Pipeline
	pools   map[int][]*tensor.Tensor
	rec     *obs.Recorder // core telemetry: windows emitted
	factory ClassTargetFactory
	started atomic.Int64 // shards whose target was built
	release func()
}

func newHeldStream(t *testing.T, workers int) *heldStream {
	t.Helper()
	h := &heldStream{rec: obs.New(obs.Config{}), pools: testPools(3, 3)}
	h.p = newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: 1, Obs: h.rec}, Config{Workers: workers, ShardRuns: 4})
	shards, err := h.p.planShards(h.pools)
	if err != nil {
		t.Fatal(err)
	}
	head := shards[streamOrder(shards)[0]]
	released := make(chan struct{})
	h.release = sync.OnceFunc(func() { close(released) })
	t.Cleanup(h.release)
	base := classFactory(t, testFactory(t, testNet(t)))
	h.factory = func(class int, seed int64) (core.Target, error) {
		h.started.Add(1)
		tgt, err := base(class, seed)
		if err != nil || class != head.Class || seed != head.Seed {
			return tgt, err
		}
		return &gatedTarget{Target: tgt, gate: func() { <-released }}, nil
	}
	return h
}

// stream runs the campaign in the background; the returned channel
// yields Stream's error.
func (h *heldStream) stream(consume func(core.Window) error) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := h.p.Stream(context.Background(), h.factory, h.pools, consume)
		done <- err
	}()
	return done
}

// waitUntil polls cond until it holds or d elapses.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// finish waits for a background stream, failing instead of hanging.
func finish(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not return")
	}
}

// TestStreamProducerOverlapsHeadShard: while the merger waits on the
// head shard, the next shard's producer must run to completion instead
// of stalling on the merger after a few windows — otherwise collection
// degrades to one shard at a time.
func TestStreamProducerOverlapsHeadShard(t *testing.T) {
	h := newHeldStream(t, 2)
	done := h.stream(func(core.Window) error { return nil })
	const want = 4 // the next shard's windows
	waitUntil(5*time.Second, func() bool { return h.rec.Get(obs.CWindowsEmitted) >= want })
	emitted := h.rec.Get(obs.CWindowsEmitted)
	h.release()
	finish(t, done)
	if emitted < want {
		t.Fatalf("next shard emitted %d of %d windows while the head shard ran", emitted, want)
	}
}

// TestStreamAdmissionBound: with the head shard held, exactly
// admitPerWorker × Workers shards start — every slot fills, and no
// shard starts beyond them, so buffered windows stay bounded.
func TestStreamAdmissionBound(t *testing.T) {
	const workers = 2
	h := newHeldStream(t, workers)
	done := h.stream(func(core.Window) error { return nil })
	limit := int64(admitPerWorker * workers)
	waitUntil(5*time.Second, func() bool { return h.started.Load() >= limit })
	time.Sleep(50 * time.Millisecond) // give an unbounded feeder time to overrun
	started := h.started.Load()
	h.release()
	finish(t, done)
	if started != limit {
		t.Fatalf("%d shards started while the head shard was held, want %d", started, limit)
	}
}

// TestStreamEarlyStopWithFullRings: ErrStop while every admitted
// shard's windows sit buffered returns promptly and leaves no producer
// goroutine behind.
func TestStreamEarlyStopWithFullRings(t *testing.T) {
	const workers = 2
	h := newHeldStream(t, workers)
	h.release() // no held shard: the consumer holds the head instead
	baseline := runtime.NumGoroutine()
	full := int64(admitPerWorker * workers * 4) // every slot holds a whole shard
	var emitted int64
	done := make(chan error, 1)
	go func() {
		stopped, err := h.p.Stream(context.Background(), h.factory, h.pools, func(core.Window) error {
			waitUntil(5*time.Second, func() bool { return h.rec.Get(obs.CWindowsEmitted) >= full })
			emitted = h.rec.Get(obs.CWindowsEmitted)
			return ErrStop
		})
		if err == nil && !stopped {
			err = errors.New("ErrStop did not report stopped")
		}
		done <- err
	}()
	finish(t, done)
	if emitted != full {
		t.Fatalf("rings held %d windows at the stop, want %d", emitted, full)
	}
	if !waitUntil(2*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Fatalf("%d goroutines after the stop, %d before", runtime.NumGoroutine(), baseline)
	}
}

package pipeline

// The Stream stage: ordered, bounded-memory delivery of profile windows
// to an incremental consumer. Collection still fans out over the worker
// pool — same shard plan, same fresh per-shard targets, same derived
// seeds as Collect — but instead of buffering whole campaigns, each
// shard's measured batches flow through a recycled window slot and are
// handed to the consumer in one deterministic global order:
//
//	shards ── admit (stream order, 2 × N slots)
//	              │
//	              ▼
//	         produce (N workers, emit per measured batch)
//	              │ slot ring, holds one shard's windows
//	              ▼
//	         merge (caller goroutine, stream order) ── consume
//
// The stream order sorts shards by (start, class) — classes interleave
// every ShardRuns runs, so a sequential tester sees both sides of every
// class pair grow together instead of one class's full budget first.
// Window boundaries are the measured batches (Config.Batch runs), so
// the consumed window sequence depends only on the plan and the batch
// size: workers=1 and workers=N deliver bit-identical streams.
//
// A slot's ring holds every window of a shard, so a producer never
// waits for the merger mid-shard. Instead a shard must be admitted into
// one of 2 × workers slots before it starts, and its slot returns once
// the merger has drained it. Memory is therefore bounded by
// 2 × workers × ShardRuns profiles, independent of the trace budget.
//
// The consumer may end the campaign early by returning ErrStop — that
// cancels the in-flight producers and Stream reports stopped=true — and
// an external context cancellation surfaces as the typed Cancelled
// error, so callers can tell an aborted campaign from a completed one.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrStop is the sentinel a stream consumer returns to end the campaign
// early. Stream cancels the remaining producers, reports stopped=true
// and returns a nil error.
var ErrStop = errors.New("pipeline: stream consumer stopped")

// Cancelled is the typed error for a campaign aborted by context
// cancellation, as opposed to one that ran its budget to exhaustion —
// the CLI layer distinguishes the two when deciding what a missing
// detection means. It wraps the underlying context error, so
// errors.Is(err, context.Canceled) still works.
type Cancelled struct {
	// Stage names the pipeline stage that was interrupted.
	Stage string
	// Err is the underlying context error.
	Err error
}

// Error formats the cancellation with its stage.
func (c *Cancelled) Error() string { return fmt.Sprintf("pipeline: %s cancelled: %v", c.Stage, c.Err) }

// Unwrap exposes the underlying context error to errors.Is/As.
func (c *Cancelled) Unwrap() error { return c.Err }

// wrapCancel converts a context error into the typed Cancelled error
// and passes every other error through.
func wrapCancel(stage string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &Cancelled{Stage: stage, Err: err}
	}
	return err
}

// admitPerWorker × Workers is the number of shards admitted at once:
// each admitted shard holds a window slot, and each worker may hold one
// finished but undrained shard while it runs the next. Fewer slots
// would park a worker behind the head shard; more would only buffer
// shards the merger is not yet reading.
const admitPerWorker = 2

// streamSlot is one admitted shard's window ring: produced windows flow
// through win, each into its own buffer from bufs. Both hold the
// largest shard's window count, so a producer never waits for the
// merger mid-shard. A slot passes to a later shard only after the
// merger has drained this one, so its buffers are recycled, never
// reallocated.
type streamSlot struct {
	win  chan core.Window
	bufs [][]hpc.Profile
	next int // index into bufs of the shard's next window
}

// newStreamSlot allocates a slot for windows of up to batch profiles
// over events.
func newStreamSlot(windows, batch int, events []march.Event) *streamSlot {
	s := &streamSlot{win: make(chan core.Window, windows), bufs: make([][]hpc.Profile, windows)}
	for b := range s.bufs {
		s.bufs[b] = make([]hpc.Profile, batch)
		for i := range s.bufs[b] {
			s.bufs[b][i] = make(hpc.Profile, len(events))
		}
	}
	return s
}

// emit hands one measured batch to the merger: it copies the window's
// observations into the slot's next buffer (the core scratch must not
// escape the producer) and sends the copy. The ring holds every window
// of the shard, so the send does not wait on the merger; cancellation
// is still honored, so a stopped campaign never deadlocks a producer.
//
//detlint:allocpath — the per-window emission hot path recycles the
// slot's preallocated buffers; nothing on the steady-state path may
// allocate (BenchmarkStreamEmit pins 0 allocs/op).
func (s *streamSlot) emit(ctx context.Context, events []march.Event, w core.Window) error {
	buf := s.bufs[s.next]
	s.next++
	for i, p := range w.Profiles {
		dst := buf[i]
		for _, e := range events {
			dst[e] = p.Get(e)
		}
	}
	w.Profiles = buf[:len(w.Profiles)]
	select {
	case s.win <- w:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// windowCount is the number of windows a shard emits: one per measured
// batch, the last one possibly short.
func windowCount(sh core.Shard, batch int) int {
	return (sh.Count + batch - 1) / batch
}

// produceShard runs one shard's collection and emits its windows into
// the slot the shard was admitted with.
func (p *Pipeline) produceShard(ctx context.Context, w int, slot *streamSlot, factory ClassTargetFactory, sh core.Shard) error {
	sp := p.cfg.Obs.ShardSpan(w, sh.Index, sh.Class)
	defer sp.End()
	target, err := factory(sh.Class, sh.Seed)
	if err != nil {
		return fmt.Errorf("pipeline: shard %d target: %w", sh.Index, err)
	}
	events := p.ev.Config().Events
	slot.next = 0
	return p.ev.CollectShardEmit(ctx, target, sh, func(w core.Window) error {
		return slot.emit(ctx, events, w)
	})
}

// streamOrder returns shard indices in the global delivery order:
// ascending (start, class). Interleaving classes at every shard
// boundary is what lets an incremental tester compare class pairs long
// before the budget is exhausted.
func streamOrder(shards []core.Shard) []int {
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := shards[order[a]], shards[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.Class < sb.Class
	})
	return order
}

// Stream runs the campaign's collection as an ordered window stream:
// shards execute concurrently over the worker pool while consume is
// called — on the caller's goroutine — once per measured batch, in the
// deterministic stream order. consume may return ErrStop to end the
// campaign early (Stream returns stopped=true, nil) or any other error
// to abort it. The windows passed to consume alias recycled buffers;
// the consumer must copy anything it keeps. An external cancellation
// surfaces as *Cancelled.
func (p *Pipeline) Stream(ctx context.Context, factory ClassTargetFactory, perClass map[int][]*tensor.Tensor, consume func(core.Window) error) (stopped bool, err error) {
	if factory == nil {
		return false, fmt.Errorf("pipeline: nil target factory")
	}
	if consume == nil {
		return false, fmt.Errorf("pipeline: nil stream consumer")
	}
	shards, err := p.planShards(perClass)
	if err != nil {
		return false, err
	}
	p.cfg.Obs.Add(obs.CShardsPlanned, int64(len(shards)))
	p.cfg.Obs.SetPhase("stream")
	stage := p.cfg.Obs.Span("pipeline", "stream")
	defer stage.End()
	order := streamOrder(shards)

	// The shard at stream position i is admitted into ring[i%len(ring)].
	// Admission tokens are taken in stream order before a shard's job is
	// handed out and returned in stream order once the merger has
	// drained it, so position i is admitted only after position
	// i-len(ring) has released the same slot.
	batch := p.ev.Config().Batch
	windows := 0
	for _, sh := range shards {
		windows = max(windows, windowCount(sh, batch))
	}
	ring := make([]*streamSlot, min(admitPerWorker*p.cfg.Workers, len(shards)))
	admit := make(chan struct{}, len(ring))
	for i := range ring {
		ring[i] = newStreamSlot(windows, batch, p.ev.Config().Events)
		admit <- struct{}{}
	}

	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Jobs are handed out in stream order, each after its admission, so
	// the shard the merger is waiting on always holds a slot and is
	// either running or next in line: the merger drains shard k
	// completely before k+1, and no worker can be parked on a shard the
	// merger won't reach. A producer never blocks mid-shard, so a worker
	// moves on to the next admitted shard while the merger is still
	// draining an earlier one.
	collectErr := make(chan error, 1)
	go func() {
		err := p.forEachAdmitted(streamCtx, len(shards), admit, func(ctx context.Context, w, i int) error {
			idx := order[i]
			if err := p.produceShard(ctx, w, ring[i%len(ring)], factory, shards[idx]); err != nil {
				return err
			}
			p.cfg.Obs.Add(obs.CShardsDone, 1)
			return nil
		})
		cancel() // wake the merger if producers stopped before emitting every window
		collectErr <- err
	}()

	var consumeErr error
merge:
	for pos, idx := range order {
		slot := ring[pos%len(ring)]
		for n := windowCount(shards[idx], batch); n > 0; n-- {
			var w core.Window
			select {
			case w = <-slot.win:
			case <-streamCtx.Done():
				// The context closes on failure or after every producer
				// returned; completed shards' remaining windows are
				// already buffered, so a non-blocking drain loses
				// nothing — an empty slot means its producer never
				// finished.
				select {
				case w = <-slot.win:
				default:
					break merge
				}
			}
			if cerr := consume(w); cerr != nil {
				if errors.Is(cerr, ErrStop) {
					stopped = true
				} else {
					consumeErr = cerr
				}
				cancel()
				break merge
			}
		}
		admit <- struct{}{}
	}

	cErr := <-collectErr
	switch {
	case consumeErr != nil:
		return false, consumeErr
	case stopped:
		return true, nil
	case cErr != nil:
		return false, wrapCancel("stream collection", cErr)
	case ctx.Err() != nil:
		// The caller cancelled after every producer had finished, so
		// collection saw no error; the campaign was still interrupted,
		// and whether a producer was still running must not decide that.
		return false, wrapCancel("stream collection", ctx.Err())
	default:
		return false, nil
	}
}

package pipeline

// Allocation gate for the stream seam: window emission runs once per
// measured batch for the whole campaign, and in steady state — the
// admission slot's preallocated buffers recycled from shard to shard —
// it must not allocate.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/raceinfo"
)

// emitFixture builds an admitted slot mid-campaign: preallocated
// window buffers and a measured window ready to emit.
func emitFixture(batch int) (*streamSlot, []march.Event, core.Window) {
	events := []march.Event{march.EvCacheMisses, march.EvBranches}
	ss := newStreamSlot(2, batch, events)
	scratch := make([]hpc.Profile, batch)
	for i := range scratch {
		scratch[i] = hpc.Profile{march.EvCacheMisses: float64(i), march.EvBranches: float64(2 * i)}
	}
	return ss, events, core.Window{Shard: 0, Class: 1, Start: 0, Profiles: scratch}
}

func TestStreamEmitZeroAllocSteadyState(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	ss, events, w := emitFixture(8)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := ss.emit(ctx, events, w); err != nil {
			t.Fatal(err)
		}
		<-ss.win
		ss.next = 0
	}); allocs != 0 {
		t.Fatalf("stream emit steady state allocates %v/op, want 0", allocs)
	}
}

func BenchmarkStreamEmit(b *testing.B) {
	ss, events, w := emitFixture(8)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ss.emit(ctx, events, w); err != nil {
			b.Fatal(err)
		}
		<-ss.win
		ss.next = 0
	}
}

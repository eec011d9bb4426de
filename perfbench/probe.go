package main

// The probe times the layers below the pipeline from the outside: it
// wraps the campaign's target factory, so every shard's target build
// (defense, instrument and march set-up) and every classification on
// the simulated core is timed, and the engine's work counts are read
// once the shard is done.

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/march"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// shardRec is one shard as the probe saw it. Its classifications all run
// on the goroutine that built the target, so only the collecting
// goroutine reads the record, after the campaign has returned.
type shardRec struct {
	start, built time.Time
	classify     [][2]time.Time
	engine       *march.Engine
}

// end is when the shard's last classification finished.
func (r *shardRec) end() time.Time {
	if n := len(r.classify); n > 0 {
		return r.classify[n-1][1]
	}
	return r.built
}

type probe struct {
	mu     sync.Mutex
	shards []*shardRec
}

// factory wraps a pipeline target factory.
func (p *probe) factory(inner pipeline.TargetFactory) pipeline.TargetFactory {
	return func(seed int64) (core.Target, error) {
		rec := &shardRec{start: time.Now()}
		t, err := inner(seed)
		rec.built = time.Now()
		if err != nil {
			return nil, err
		}
		rec.engine = t.Engine()
		p.mu.Lock()
		p.shards = append(p.shards, rec)
		p.mu.Unlock()
		return &timedTarget{Target: t, rec: rec}, nil
	}
}

// timedTarget embeds only core.Target, so the evaluator measures it run
// by run exactly as it measures the deployed classifier at the default
// batch size.
type timedTarget struct {
	core.Target
	rec *shardRec
}

func (t *timedTarget) Classify(img *tensor.Tensor) (int, error) {
	start := time.Now()
	pred, err := t.Target.Classify(img)
	t.rec.classify = append(t.rec.classify, [2]time.Time{start, time.Now()})
	return pred, err
}

// work is the deterministic simulated work of a campaign: the engine
// counts of every shard at shard end, warm-up classifications included.
type work struct {
	Instructions uint64 `json:"instructions"`
	L1Loads      uint64 `json:"l1_loads"`
	L1Misses     uint64 `json:"l1_misses"`
	LLCMisses    uint64 `json:"llc_misses"`
	Branches     uint64 `json:"branches"`
}

// probeSummary is what one probed campaign measured.
type probeSummary struct {
	shards, classifications int
	classifyBusy, shardBusy time.Duration
	p50, p99                time.Duration
	work                    work
}

func (p *probe) summary() probeSummary {
	var s probeSummary
	var durs []time.Duration
	for _, r := range p.shards {
		s.shards++
		s.shardBusy += r.end().Sub(r.start)
		for _, c := range r.classify {
			d := c[1].Sub(c[0])
			durs = append(durs, d)
			s.classifyBusy += d
		}
		c := r.engine.Counts()
		s.work.Instructions += c.Get(march.EvInstructions)
		s.work.L1Loads += c.Get(march.EvL1DLoads)
		s.work.L1Misses += c.Get(march.EvL1DLoadMisses)
		s.work.LLCMisses += c.Get(march.EvLLCLoadMisses)
		s.work.Branches += c.Get(march.EvBranches)
	}
	s.classifications = len(durs)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	s.p50, s.p99 = quantile(durs, 0.50), quantile(durs, 0.99)
	return s
}

// quantile is the nearest-rank quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// record adds the probed shards to the trace under parent: one core span
// per shard (target build to last classification) holding a deploy span
// for the target build and a march span per classification. Lanes are
// assigned greedily by start time, which reproduces the pipeline's
// workers because each worker runs its shards back to back.
func (p *probe) record(sp *spans, parent int) {
	recs := append([]*shardRec(nil), p.shards...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].start.Before(recs[j].start) })
	var laneEnd []time.Time
	for _, r := range recs {
		lane := -1
		for i, e := range laneEnd {
			if !r.start.Before(e) {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[lane] = r.end()
		id := sp.add(parent, "core", "shard", lane+1, r.start, r.end())
		sp.add(id, "deploy", "target", lane+1, r.start, r.built)
		for _, c := range r.classify {
			sp.add(id, "march", "classify", lane+1, c[0], c[1])
		}
	}
}

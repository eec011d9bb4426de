package repro

// The architecture-fingerprinting stage: the scenario where the secret is
// the *model*, not the input. The adversary of CSI-NN (Batina et al.)
// first asks which architecture is deployed at all; this stage answers
// how well the HPC side channel lets them — a model zoo of candidate
// architectures is deployed one per class label on the sharded pipeline,
// and the same template/kNN attackers that recover input categories
// recover the architecture id instead. It is the first scenario where the
// defense levels are scored on a different secret: per-kernel constant
// time alone does NOT help (each architecture's fixed footprint is its
// fingerprint), so the constant-time deployment additionally pads to the
// zoo-wide footprint envelope (see internal/archid).

import (
	"context"
	"fmt"

	"repro/internal/archid"
	"repro/internal/hpc"
	"repro/internal/nn"
	"repro/internal/obs"
)

// ArchIDResult is the fingerprinting stage's output: attacker confusion
// matrices over architecture labels, zoo metadata and layer evidence.
type ArchIDResult = archid.Result

// ArchIDConfig controls an architecture-fingerprinting campaign. The zero
// value profiles 40 and attacks 20 classifications per architecture with
// the paper's base events over the scenario's default zoo.
type ArchIDConfig struct {
	Events []Event
	// ProfileRuns / AttackRuns are the adversary's per-architecture
	// profiling and held-out scoring budgets; defaults 40 / 20.
	ProfileRuns, AttackRuns int
	// K is the kNN neighbourhood size; default 5.
	K int
	// Workers is the pipeline worker count; 0 → GOMAXPROCS.
	Workers int
	// Seed is the campaign root seed; 0 uses the scenario seed. Weight
	// construction and observations derive from it in domains disjoint
	// from the evaluation and input-recovery attack stages.
	Seed int64
	// ShardRuns bounds measured runs per shard; 0 uses the pipeline
	// default.
	ShardRuns int
	// MaxInputs caps the shared input pool taken from the scenario's test
	// split; 0 uses every test image.
	MaxInputs int
	// NoPad disables the constant-time envelope padding (ablation).
	NoPad bool
	// Processes distributes shard execution over that many shardworker OS
	// processes through the distributed audit fabric; 0 keeps execution
	// in-process. Results are byte-identical either way.
	Processes int
	// Fabric configures the fabric when Processes ≥ 1.
	Fabric FabricConfig
	// Obs, when non-nil, records campaign telemetry. Observational
	// output only — results are byte-identical with or without it.
	Obs *obs.Recorder
}

// ArchZoo returns the scenario's candidate-architecture hypothesis space:
// the default zoo over the scenario's input shape and class count.
func (s *Scenario) ArchZoo() (*nn.Zoo, error) {
	return nn.DefaultZoo(s.Arch.InH, s.Arch.InW, s.Arch.InC, s.Arch.Classes)
}

// ArchID runs the fingerprinting stage against the scenario's zoo at its
// configured defense level.
func (s *Scenario) ArchID(ctx context.Context, cfg ArchIDConfig) (*ArchIDResult, error) {
	return s.ArchIDGrouped(ctx, s.Config.Defense, cfg)
}

// ArchIDGrouped runs the fingerprinting stage at an explicit defense level
// over an arbitrarily wide event list. Event sets wider than the HPC
// register file are split into register-sized groups, each collected as
// its own pipeline session against the *same* deterministic zoo victims
// (weights derive from the root seed alone; only the observation seeds
// differ per session), and the per-run profiles are joined per
// (architecture, run). Results are bit-identical at any worker count.
func (s *Scenario) ArchIDGrouped(ctx context.Context, level DefenseLevel, cfg ArchIDConfig) (*ArchIDResult, error) {
	zoo, err := s.ArchZoo()
	if err != nil {
		return nil, err
	}
	inputs := s.Test.Inputs()
	if cfg.MaxInputs > 0 && cfg.MaxInputs < len(inputs) {
		inputs = inputs[:cfg.MaxInputs]
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = s.Config.Seed
	}
	events := cfg.Events
	if len(events) == 0 {
		events = []Event{EvCacheMisses, EvBranches}
	}
	camp, err := archid.NewCampaign(archid.Config{
		Name:           fmt.Sprintf("%s-archid/%s", s.Config.Dataset, level),
		Zoo:            zoo,
		Inputs:         inputs,
		Level:          level,
		ProfileRuns:    cfg.ProfileRuns,
		AttackRuns:     cfg.AttackRuns,
		K:              cfg.K,
		Workers:        cfg.Workers,
		Seed:           seed,
		ShardRuns:      cfg.ShardRuns,
		DisableRuntime: s.Config.DisableRuntime,
		DisableNoise:   s.Config.DisableNoise,
		NoPad:          cfg.NoPad,
		Obs:            cfg.Obs,
	})
	if err != nil {
		return nil, err
	}

	// One collection session per register-sized event group against the
	// campaign's shared victims (one group in the common case); profiles
	// of the same (architecture, run) are joined across sessions into one
	// feature vector.
	byArch := map[int][]hpc.Profile{}
	for g := 0; g*hpc.DefaultCounters < len(events); g++ {
		lo := g * hpc.DefaultCounters
		hi := lo + hpc.DefaultCounters
		if hi > len(events) {
			hi = len(events)
		}
		var part map[int][]hpc.Profile
		if cfg.Processes > 0 {
			p, _, err := camp.SessionExecutor(events[lo:hi], g)
			if err != nil {
				return nil, err
			}
			scen, err := s.spec()
			if err != nil {
				return nil, err
			}
			spec := WorkerSpec{
				Stage:       StageArchID,
				Scenario:    scen,
				Level:       level.String(),
				Events:      eventNames(events[lo:hi]),
				Session:     g,
				Seed:        seed,
				ProfileRuns: cfg.ProfileRuns,
				AttackRuns:  cfg.AttackRuns,
				MaxInputs:   cfg.MaxInputs,
				NoPad:       cfg.NoPad,
				ShardRuns:   cfg.ShardRuns,
			}
			part, err = collectFabric(ctx, p, camp.Pools(), spec, cfg.Processes, cfg.Fabric)
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			part, err = camp.Collect(ctx, events[lo:hi], g)
			if err != nil {
				return nil, err
			}
		}
		joinProfiles(byArch, part)
	}
	return camp.Score(events, byArch)
}

// joinProfiles merges one collection session's labelled profiles into the
// accumulated per-(class, run) feature vectors — the multi-session join
// both the attack and archid wide-event paths perform. Sessions of one
// campaign always produce the same classes and run counts (same pools,
// same RunsPerClass), so the positional merge is total.
func joinProfiles(dst, part map[int][]hpc.Profile) {
	for cls, profs := range part {
		if dst[cls] == nil {
			dst[cls] = profs
			continue
		}
		for r, prof := range profs {
			for e, v := range prof {
				dst[cls][r][e] = v
			}
		}
	}
}

package repro

// The repro side of the distributed audit fabric (internal/fabric): the
// campaign spec that crosses the process boundary, the worker-side
// runner construction, and the coordinator-side collection helper every
// stage shares.
//
// The spec is small: dataset, seeds and budgets, plus the coordinator's
// trained network as SaveModel bytes. A shardworker regenerates the
// synthetic dataset and redeploys the victims and envelope from the
// seeds, exactly as the coordinator did, but loads the shipped weights
// instead of training its own copy, so a worker's start-up costs no
// training at all. A spec without model bytes still rebuilds the network
// by seeded training, which yields the same bits at a higher price.
// Either way the rebuilt state is bit-identical to the coordinator's,
// and a shard measured in another process returns the exact bytes the
// in-process pipeline would have produced. That is the whole determinism
// argument: processes=N only changes *where* shards run, never *what*
// they observe. Because the model bytes sit inside the digested spec,
// a campaign digest (and so its journal) binds to the exact weights that
// ran.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/archid"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// FabricConfig configures the distributed audit fabric for campaigns
// with Processes ≥ 1.
type FabricConfig struct {
	// WorkerBin is the shardworker binary to launch; "" falls back to the
	// REPRO_SHARDWORKER environment variable.
	WorkerBin string
	// Journal is the base path of the shard-completion journal; each
	// collection session appends ".<stage>.g<session>". "" disables
	// journaling (campaigns are not resumable after a crash).
	Journal string
	// TCP dispatches shards over loopback TCP connections instead of the
	// default stdin/stdout pipes.
	TCP bool
	// Env adds environment variables to every worker process (the
	// fault-injection hooks in tests).
	Env []string
}

func (fc FabricConfig) workerBin() (string, error) {
	if fc.WorkerBin != "" {
		return fc.WorkerBin, nil
	}
	if bin := os.Getenv("REPRO_SHARDWORKER"); bin != "" {
		return bin, nil
	}
	return "", fmt.Errorf("repro: the fabric needs a shardworker binary (FabricConfig.WorkerBin or $REPRO_SHARDWORKER)")
}

// ScenarioSpec is the wire form of ScenarioConfig plus the trained
// network: everything a worker process needs to rebuild the scenario.
// Dataset generation and deployment are seeded, so their rebuild is
// bit-identical; the network arrives as Model bytes.
type ScenarioSpec struct {
	Dataset        Dataset `json:"dataset"`
	Seed           int64   `json:"seed"`
	PerClassTrain  int     `json:"per_class_train"`
	PerClassTest   int     `json:"per_class_test"`
	Epochs         int     `json:"epochs"`
	LR             float64 `json:"lr,omitempty"`
	Defense        string  `json:"defense"`
	DisableRuntime bool    `json:"disable_runtime,omitempty"`
	DisableNoise   bool    `json:"disable_noise,omitempty"`
	// Model is the trained network in nn.SaveModel form. Empty makes the
	// worker train its own copy from the seeds above.
	Model []byte `json:"model,omitempty"`
}

// spec captures the scenario's rebuild recipe and its trained weights.
func (s *Scenario) spec() (ScenarioSpec, error) {
	var model bytes.Buffer
	if err := nn.SaveModel(&model, s.Arch, s.Net); err != nil {
		return ScenarioSpec{}, err
	}
	c := s.Config
	return ScenarioSpec{
		Dataset:        c.Dataset,
		Seed:           c.Seed,
		PerClassTrain:  c.PerClassTrain,
		PerClassTest:   c.PerClassTest,
		Epochs:         c.Epochs,
		LR:             c.LR,
		Defense:        c.Defense.String(),
		DisableRuntime: c.DisableRuntime,
		DisableNoise:   c.DisableNoise,
		Model:          model.Bytes(),
	}, nil
}

func (sp ScenarioSpec) config() (ScenarioConfig, error) {
	level, err := ParseDefense(sp.Defense)
	if err != nil {
		return ScenarioConfig{}, err
	}
	return ScenarioConfig{
		Dataset:        sp.Dataset,
		Seed:           sp.Seed,
		PerClassTrain:  sp.PerClassTrain,
		PerClassTest:   sp.PerClassTest,
		Epochs:         sp.Epochs,
		LR:             sp.LR,
		Defense:        level,
		DisableRuntime: sp.DisableRuntime,
		DisableNoise:   sp.DisableNoise,
	}, nil
}

// build rebuilds the scenario on a worker: around the shipped model when
// the spec carries one, otherwise by training from the spec's seeds. The
// model bytes are untrusted input; a model whose architecture is not the
// one the dataset deploys is refused.
func (sp ScenarioSpec) build() (*Scenario, error) {
	cfg, err := sp.config()
	if err != nil {
		return nil, err
	}
	if len(sp.Model) == 0 {
		return NewScenario(cfg)
	}
	arch, net, err := nn.LoadModel(bytes.NewReader(sp.Model))
	if err != nil {
		return nil, fmt.Errorf("repro: loading the shipped model: %w", err)
	}
	want, _, err := datasetArch(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	if arch != want {
		if len(arch.Name) > 64 {
			arch.Name = arch.Name[:64] + "..."
		}
		return nil, fmt.Errorf("repro: shipped model is %+v, but the %s dataset deploys %+v", arch, cfg.Dataset, want)
	}
	return newScenario(cfg, net)
}

// Fabric stage names, the WorkerSpec.Stage values. Report and attack
// collections execute identically on a worker (a scenario-target
// pipeline session); the distinct names keep their journals and
// campaign digests apart.
const (
	StageReport  = "report"
	StageAttack  = "attack"
	StageArchID  = "archid"
	StageTopo    = "topo"
	StageMonitor = "monitor"
)

// WorkerSpec is the opaque campaign spec a coordinator sends in the init
// frame: one collection session, fully self-contained. Its canonical
// JSON encoding doubles as the campaign identity — fabric.CampaignDigest
// of these bytes binds the session's journal.
type WorkerSpec struct {
	// Proto pins the spec layout; mismatches fail before any collection.
	Proto string `json:"proto"`
	// Stage selects the campaign kind (Stage* constants).
	Stage string `json:"stage"`
	// Scenario rebuilds the case study on the worker.
	Scenario ScenarioSpec `json:"scenario"`
	// Level is the deployment hardening of this session's victims (sweeps
	// evaluate levels other than the scenario's own).
	Level string `json:"level"`
	// Events are this session's monitored counters (≤ one register group).
	Events []string `json:"events"`
	// Session is the register-group index within a wide-event campaign.
	Session int `json:"session"`

	// Report/attack sessions: input classes, run budget and the session's
	// already-derived pipeline root seed. Batch is the measured-batch size
	// (core.Config.Batch) — attribution is exact at any value, but it is
	// part of the spec so the campaign digest records how the session was
	// executed.
	Classes      []int `json:"classes,omitempty"`
	RunsPerClass int   `json:"runs_per_class,omitempty"`
	RootSeed     int64 `json:"root_seed,omitempty"`
	Batch        int   `json:"batch,omitempty"`

	// Monitor sessions: tenant count (≥ 2 co-locates a second classifier
	// on every shard engine, interleaved at Quantum instructions).
	Tenants int `json:"tenants,omitempty"`

	// ArchID/topo sessions: the campaign root seed (victim weights derive
	// from it) and the stage budgets.
	Seed        int64  `json:"campaign_seed,omitempty"`
	ProfileRuns int    `json:"profile_runs,omitempty"`
	AttackRuns  int    `json:"attack_runs,omitempty"`
	MaxInputs   int    `json:"max_inputs,omitempty"`
	NoPad       bool   `json:"no_pad,omitempty"`
	TrainZoo    int    `json:"train_zoo,omitempty"`
	Holdout     int    `json:"holdout,omitempty"`
	Runs        int    `json:"runs,omitempty"`
	Quantum     uint64 `json:"quantum,omitempty"`

	// ShardRuns bounds measured runs per shard (must match the
	// coordinator's plan).
	ShardRuns int `json:"shard_runs,omitempty"`
}

// specProto is the WorkerSpec layout version, checked independently of
// the frame protocol so a spec-layout drift between binaries also fails
// loudly.
const specProto = "repro-fabric-1"

func eventNames(events []march.Event) []string {
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.String()
	}
	return names
}

func parseEventNames(names []string) ([]march.Event, error) {
	events := make([]march.Event, len(names))
	for i, n := range names {
		e, err := march.ParseEvent(n)
		if err != nil {
			return nil, err
		}
		events[i] = e
	}
	return events, nil
}

// NewWorkerRunner is the fabric.BuildRunner of cmd/shardworker: it
// decodes a WorkerSpec and rebuilds that session's campaign state —
// scenario (around the shipped model, when there is one), victims,
// pipeline — returning the plan executor the serve loop answers shard
// frames with.
func NewWorkerRunner(ctx context.Context, raw []byte) (fabric.Runner, error) {
	var spec WorkerSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("repro: decoding worker spec: %w", err)
	}
	if spec.Proto != specProto {
		return nil, fmt.Errorf("repro: worker spec proto %q, want %q — coordinator and shardworker binaries are out of sync", spec.Proto, specProto)
	}
	events, err := parseEventNames(spec.Events)
	if err != nil {
		return nil, err
	}
	level, err := ParseDefense(spec.Level)
	if err != nil {
		return nil, err
	}
	s, err := spec.Scenario.build()
	if err != nil {
		return nil, fmt.Errorf("repro: rebuilding scenario: %w", err)
	}
	inputs := s.Test.Inputs()
	if spec.MaxInputs > 0 && spec.MaxInputs < len(inputs) {
		inputs = inputs[:spec.MaxInputs]
	}

	switch spec.Stage {
	case StageReport, StageAttack, StageMonitor:
		ev, err := core.NewEvaluator(core.Config{
			Events:       events,
			RunsPerClass: spec.RunsPerClass,
			Batch:        spec.Batch,
		})
		if err != nil {
			return nil, err
		}
		p, err := pipeline.New(ev, pipeline.Config{
			Workers:   1,
			RootSeed:  spec.RootSeed,
			ShardRuns: spec.ShardRuns,
		})
		if err != nil {
			return nil, err
		}
		pools, err := s.ClassPools(spec.Classes...)
		if err != nil {
			return nil, err
		}
		factory := s.FactoryFor(level)
		if spec.Stage == StageMonitor && spec.Tenants >= 2 {
			factory = s.monitorFactory(level, spec.Tenants, spec.Quantum)
		}
		return p.Executor(func(_ int, seed int64) (core.Target, error) {
			return factory(seed)
		}, pools)
	case StageArchID:
		zoo, err := s.ArchZoo()
		if err != nil {
			return nil, err
		}
		camp, err := archid.NewCampaign(archid.Config{
			Zoo:            zoo,
			Inputs:         inputs,
			Level:          level,
			ProfileRuns:    spec.ProfileRuns,
			AttackRuns:     spec.AttackRuns,
			Workers:        1,
			Seed:           spec.Seed,
			ShardRuns:      spec.ShardRuns,
			DisableRuntime: spec.Scenario.DisableRuntime,
			DisableNoise:   spec.Scenario.DisableNoise,
			NoPad:          spec.NoPad,
		})
		if err != nil {
			return nil, err
		}
		_, exec, err := camp.SessionExecutor(events, spec.Session)
		return exec, err
	case StageTopo:
		camp, err := topo.NewCampaign(topo.Config{
			InH:            s.Arch.InH,
			InW:            s.Arch.InW,
			InC:            s.Arch.InC,
			Classes:        s.Arch.Classes,
			Inputs:         inputs,
			Level:          level,
			TrainSize:      spec.TrainZoo,
			HoldoutSize:    spec.Holdout,
			Runs:           spec.Runs,
			Quantum:        spec.Quantum,
			Workers:        1,
			Seed:           spec.Seed,
			ShardRuns:      spec.ShardRuns,
			DisableRuntime: spec.Scenario.DisableRuntime,
			DisableNoise:   spec.Scenario.DisableNoise,
		})
		if err != nil {
			return nil, err
		}
		_, exec, err := camp.SessionExecutor(events, spec.Session)
		return exec, err
	default:
		return nil, fmt.Errorf("repro: unknown fabric stage %q", spec.Stage)
	}
}

// journalPath derives the session's journal file from the configured
// base: one campaign runs several sessions (stages × register groups),
// and sweeps run many campaigns side by side — the stage, session and a
// campaign-digest prefix keep every completion log distinct while a
// rerun of the same session always finds its own.
func (fc FabricConfig) journalPath(spec WorkerSpec, digest string) string {
	return fmt.Sprintf("%s.%s.g%d.%s", fc.Journal, spec.Stage, spec.Session, digest[:12])
}

// collectFabric runs one collection session's shard plan on worker
// processes and returns the merged labelled profiles — the fabric
// counterpart of Pipeline.CollectProfilesByClass, shared by every stage.
// The merge is keyed by each plan's (class, start) placement, so the
// result is independent of process count, scheduling and arrival order.
func collectFabric(ctx context.Context, p *pipeline.Pipeline, pools map[int][]*tensor.Tensor, spec WorkerSpec, procs int, fc FabricConfig) (map[int][]hpc.Profile, error) {
	bin, err := fc.workerBin()
	if err != nil {
		return nil, err
	}
	spec.Proto = specProto
	specBytes, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	plans, err := p.WirePlans(pools)
	if err != nil {
		return nil, err
	}
	rec := p.Config().Obs
	rec.Add(obs.CShardsPlanned, int64(len(plans)))
	rec.SetPhase("collect")
	stage := rec.Span("fabric", "collect")
	defer stage.End()
	var journal *fabric.Journal
	if fc.Journal != "" {
		digest := fabric.CampaignDigest(specBytes)
		journal, err = fabric.OpenJournal(fc.journalPath(spec, digest), digest)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}
	pool, err := fabric.StartPool(ctx, fabric.PoolConfig{
		Bin:   bin,
		Env:   fc.Env,
		Spec:  specBytes,
		Procs: procs,
		TCP:   fc.TCP,
		Obs:   rec,
	})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	payloads, err := (&fabric.Coordinator{Dispatcher: pool, Journal: journal, Obs: rec}).Run(ctx, plans)
	if err != nil {
		return nil, err
	}
	return p.MergeEncoded(plans, payloads)
}

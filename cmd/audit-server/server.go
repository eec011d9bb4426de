package main

// The audit server's queue and HTTP surface, separated from main so the
// handlers and lifecycle are unit-testable with an injected run
// function instead of multi-minute real campaigns.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
)

// CampaignRequest is the POST /campaigns body: one audit campaign,
// declared with the same spec vocabulary the fabric's worker protocol
// uses. Budgets left zero take the stage's documented defaults.
type CampaignRequest struct {
	// Stage selects the audit: report, attack, archid, topo or monitor.
	Stage string `json:"stage"`
	// Scenario is the case study to rebuild (repro.ScenarioSpec).
	Scenario repro.ScenarioSpec `json:"scenario"`
	// Events are the monitored counters; empty uses the stage default.
	Events []string `json:"events,omitempty"`
	// Classes are the report/attack input categories.
	Classes []int `json:"classes,omitempty"`
	// Runs is the main per-class/per-victim run budget of the stage.
	Runs int `json:"runs,omitempty"`
	// AttackRuns is the held-out scoring budget (attack/archid).
	AttackRuns int `json:"attack_runs,omitempty"`
	// MaxInputs caps the stage's input pool.
	MaxInputs int `json:"max_inputs,omitempty"`
	// Seed overrides the campaign root seed; 0 uses the scenario seed.
	Seed int64 `json:"seed,omitempty"`
	// Alpha is the monitor stage's overall significance level; 0 uses
	// the default 0.05.
	Alpha float64 `json:"alpha,omitempty"`
	// Tenants ≥ 2 runs the monitor stage in co-residency mode.
	Tenants int `json:"tenants,omitempty"`
	// NoStop disables the monitor stage's early stopping.
	NoStop bool `json:"no_stop,omitempty"`
	// Processes distributes collection over shardworker processes; 0
	// runs in-process. Reports are byte-identical either way.
	Processes int `json:"processes,omitempty"`
}

// campaignState is a queued campaign's lifecycle phase.
type campaignState string

const (
	stateQueued  campaignState = "queued"
	stateRunning campaignState = "running"
	stateDone    campaignState = "done"
	stateFailed  campaignState = "failed"
)

// campaign is one queued audit and its outcome.
type campaign struct {
	ID        int             `json:"id"`
	State     campaignState   `json:"state"`
	Request   CampaignRequest `json:"request"`
	Error     string          `json:"error,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
	Submitted time.Time       `json:"submitted"`

	// rec is the campaign's telemetry recorder, armed when the campaign
	// starts running. Observational output only: the report bytes never
	// depend on it. Unexported, so campaign JSON is unchanged.
	rec *obs.Recorder
}

// runFunc executes one campaign and returns its JSON report, recording
// progress telemetry into rec. main installs runCampaign; tests install
// fakes.
type runFunc func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error)

// server queues campaigns and serves their reports. Campaigns run one
// at a time in submission order — the fabric already parallelizes
// inside a campaign, so the queue stays strictly FIFO and every report
// is reproducible independent of what else was submitted.
type server struct {
	run runFunc
	// clock is the server's only wall-clock source (display-only fields
	// like Submitted and /metrics uptime; no campaign bytes derive from
	// it). Tests inject fakes.
	clock obs.Clock
	// metrics aggregates finished campaigns' counters for GET /metrics;
	// its elapsed gauge is the server uptime.
	metrics *obs.Recorder

	mu        sync.Mutex
	campaigns map[int]*campaign
	order     []int
	nextID    int
	// closed is set by Close under mu; enqueues check it under the same
	// lock, so no POST ever sends on the closed queue.
	closed bool

	queue chan int
	done  chan struct{}
}

// queueDepth is the number of submitted campaigns that may wait behind
// the running one; a POST beyond it is refused with 503.
const queueDepth = 1024

// maxRequestBytes caps a POST /campaigns body; a larger one is refused
// with 413. Real requests are a few hundred bytes.
const maxRequestBytes = 1 << 20

func newServer(run runFunc) *server {
	return newServerWithClock(run, obs.SystemClock())
}

func newServerWithClock(run runFunc, clock obs.Clock) *server {
	s := &server{
		run:       run,
		clock:     clock,
		metrics:   obs.New(obs.Config{Clock: clock, Label: "audit-server"}),
		campaigns: map[int]*campaign{},
		nextID:    1,
		queue:     make(chan int, queueDepth),
		done:      make(chan struct{}),
	}
	go s.worker()
	return s
}

// worker drains the queue sequentially until Close.
func (s *server) worker() {
	for id := range s.queue {
		s.mu.Lock()
		c := s.campaigns[id]
		c.State = stateRunning
		c.rec = obs.New(obs.Config{Clock: s.clock, Label: fmt.Sprintf("campaign-%d", id)})
		req, rec := c.Request, c.rec
		s.mu.Unlock()

		report, err := s.run(context.Background(), req, rec)

		s.mu.Lock()
		if err != nil {
			c.State = stateFailed
			c.Error = err.Error()
		} else {
			c.State = stateDone
			c.Report = report
		}
		// Fold the finished campaign's counters into the server-wide
		// /metrics totals (running campaigns are visible per-campaign via
		// their /progress endpoint until they land here).
		for _, ctr := range obs.AllCounters() {
			s.metrics.Add(ctr, rec.Get(ctr))
		}
		s.mu.Unlock()
	}
	close(s.done)
}

// Close stops accepting work and waits for the queued and in-flight
// campaigns. Later POSTs are refused with 503.
func (s *server) Close() {
	s.mu.Lock()
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	<-s.done
}

// enqueue registers and queues a campaign without blocking: a closed
// server or a full queue refuses it. The worker looks a dequeued id up
// under mu, so queuing before registering under the same lock is safe.
func (s *server) enqueue(req CampaignRequest) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("server is shutting down")
	}
	id := s.nextID
	select {
	case s.queue <- id:
	default:
		return 0, fmt.Errorf("campaign queue is full (%d waiting)", queueDepth)
	}
	s.nextID++
	// Submitted is display-only operator telemetry read off the obs
	// clock — the repo's one sanctioned wall-clock source; no campaign
	// bytes derive from it.
	s.campaigns[id] = &campaign{ID: id, State: stateQueued, Request: req, Submitted: s.clock.Now().UTC()}
	s.order = append(s.order, id)
	return id, nil
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/campaigns", s.handleCampaigns)
	mux.HandleFunc("/campaigns/", s.handleCampaign)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// handleCampaigns serves POST /campaigns (enqueue) and GET /campaigns
// (list all, newest last).
func (s *server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		// The whole body is read under the cap, so whitespace padding
		// after the JSON value counts against it too.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, "campaign request exceeds %d bytes", maxRequestBytes)
				return
			}
			httpError(w, http.StatusBadRequest, "reading campaign request: %v", err)
			return
		}
		var req CampaignRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "decoding campaign request: %v", err)
			return
		}
		if err := validateRequest(req); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		id, err := s.enqueue(req)
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusAccepted, enqueuedJSON{ID: id, State: stateQueued})
	case http.MethodGet:
		s.mu.Lock()
		list := make([]*campaign, 0, len(s.order))
		for _, id := range s.order {
			list = append(list, snapshot(s.campaigns[id]))
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, list)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleCampaign serves GET /campaigns/<id> (state plus, once done, the
// full JSON report) and GET /campaigns/<id>/progress (live telemetry).
func (s *server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
	sub := ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest, sub = rest[:i], rest[i+1:]
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		httpError(w, http.StatusBadRequest, "campaign ids are integers")
		return
	}
	s.mu.Lock()
	c, ok := s.campaigns[id]
	if ok {
		c = snapshot(c)
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no campaign %d", id)
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, c)
	case "progress":
		// Every read below is nil-safe: a queued campaign has no recorder
		// yet and reports zeros.
		writeJSON(w, http.StatusOK, progressJSON{
			ID:          c.ID,
			State:       c.State,
			Phase:       c.rec.Phase(),
			ShardsDone:  c.rec.Get(obs.CShardsDone),
			ShardsTotal: c.rec.Get(obs.CShardsPlanned),
			ElapsedMS:   c.rec.ElapsedMS(),
		})
	default:
		httpError(w, http.StatusNotFound, "no campaign resource %q", sub)
	}
}

// handleMetrics serves GET /metrics: the server-wide counter totals over
// finished campaigns in obs's fixed-order text format, with the elapsed
// gauge reporting server uptime.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.WriteMetrics(w)
}

// progressJSON is the GET /campaigns/<id>/progress body: the campaign's
// live stage, shard progress and elapsed wall time.
type progressJSON struct {
	ID          int           `json:"id"`
	State       campaignState `json:"state"`
	Phase       string        `json:"phase,omitempty"`
	ShardsDone  int64         `json:"shards_done"`
	ShardsTotal int64         `json:"shards_total"`
	ElapsedMS   int64         `json:"elapsed_ms"`
}

// snapshot copies a campaign under the caller's lock so handlers never
// serialize a struct the worker goroutine is mutating.
func snapshot(c *campaign) *campaign {
	cp := *c
	return &cp
}

func validateRequest(req CampaignRequest) error {
	switch req.Stage {
	case repro.StageReport, repro.StageAttack, repro.StageArchID, repro.StageTopo, repro.StageMonitor:
	default:
		return fmt.Errorf("unknown stage %q (want report, attack, archid, topo or monitor)", req.Stage)
	}
	if req.Scenario.Dataset == "" {
		return fmt.Errorf("campaign needs a scenario dataset")
	}
	if len(req.Scenario.Model) > 0 {
		return fmt.Errorf("scenario.model is not accepted: the server trains the victim from the scenario's seeds")
	}
	return nil
}

// enqueuedJSON acknowledges POST /campaigns. A named struct (not a bare
// map) keeps the response schema explicit and its key order a property
// of the type; fields stay in the alphabetical order the former map
// encoding produced, so client-visible bytes are unchanged.
type enqueuedJSON struct {
	ID    int           `json:"id"`
	State campaignState `json:"state"`
}

// errorJSON is the uniform error envelope for every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// Package flux is a from-scratch Go reproduction of "Federated Fine-Tuning
// of Sparsely-Activated Large Language Models on Resource-Constrained
// Devices" (Flux, EUROSYS '26), exposed as an importable SDK: a trainable
// MoE transformer substrate, a federated learning engine with a simulated
// consumer-GPU testbed, the Flux system (quantized stale profiling, adaptive
// expert merging, dynamic expert role assignment), the FMD/FMQ/FMES
// baselines, and a harness that regenerates every table and figure of the
// paper's evaluation.
//
// The public surface is built around three ideas:
//
//   - Functional options: New(WithMethod("flux"), WithRounds(30), ...)
//     assembles an Experiment from composable settings.
//   - Transports: the engine's one round loop — behind Run(ctx), the
//     figure runners and Serve alike — drives an InProcess simulation or a
//     real TCP deployment (TCP), and cancelling the context stops either
//     cleanly. Over TCP every participant runs the
//     method's own participant function on its own replica of the
//     environment and uploads the SlotResult, and both transports reduce a
//     round through the one server core and its slot check, so every
//     method's rounds — scores, traffic, census, simulated time, trace and
//     run log — are bit-identical on both.
//   - A method registry: Methods lists the available federated fine-tuning
//     methods ("flux", "fmd", "fmq", "fmes"); RegisterMethod adds more, and
//     every registered method runs on both transports.
//
// Both extension points are fully public. A custom method implements
// Rounder against Env and EngineConfig around one contract — Round(env, r,
// cohort) prepares the round and returns a Participant function that runs
// one participant and returns its SlotResult (update, modeled traffic,
// per-phase simulated seconds) — and registers with RegisterMethod.
// env.RunRound owns the rest of the round: the cohort, the fan-out,
// cancellation, the slot check, straggler deadline, aggregation in
// whichever mode the run selected, traffic and census accounting,
// observability records, and the round's report: a RoundStats (phase
// seconds, traffic, census, versions) returned by value, the same value a
// Transport's Round returns. A custom execution substrate implements
// Transport. Neither
// requires code inside this module: examples/external_method is a complete
// method in its own Go module, and package fluxtest is the conformance
// suite (determinism, cancellation, aggregation order, event-stream shape,
// wire equivalence) that both third-party plugins and the built-ins here
// are tested against.
//
// The in-process engine executes each round's participant phase, its
// evaluation and its quantized profiling model over one worker pool
// (WithParallelism; the default is GOMAXPROCS) with a strict determinism
// contract: convergence curves, observed traffic, and simulated phase
// timings are bit-identical at every worker count. Rounders get the
// same machinery through RunRound — pre-split env.RNG per participant in
// Round, have the Participant function write only its own per-participant
// state, and leave every cross-participant reduction to the server core,
// which folds in cohort order — with per-worker
// Scratch buffers (local-model clone, gradient accumulator, update-flatten
// arena) that persist across rounds to keep the hot path
// allocation-lean. fluxtest's ParallelDeterminism check enforces the
// contract on built-ins and third-party methods alike.
//
// Each Scratch also owns a moe.Workspace — the arena for every transient
// buffer a forward/backward pass needs (activation caches, attention
// scores, expert hidden states, softmax scratch). A workspace is created
// once per worker, grows to the model's shapes on first use, and is reused
// for every subsequent sequence, so steady-state training performs zero
// heap allocations. That contract is pinned at run time, by AllocsPerRun
// tests on every workspace entry point (TestForwardBackwardZeroAllocs,
// TestDecodeZeroAllocs, TestAxpyKernelsZeroAllocs; each entry point's doc
// comment names its pin) and by the CI allocation guard (cmd/benchguard
// over the committed bench/BENCH_round.json snapshot). Workspaces are
// single-goroutine state: never share one across workers, and never hold
// references into a workspace across a pass that reuses it — a
// workspace-returned *tensor.Matrix is valid only until the workspace is
// next used, which the prefix-cache bit-identity tests pin. All
// workspace-backed kernels preserve the reference implementations'
// floating-point accumulation order exactly, so the fast path is
// bit-identical to the naive one — see README "Performance". The workspace
// and in-place forms are the only forms: a model entry point takes a
// *moe.Workspace (nil allocates a private one for the call), a matrix
// product writes into a caller-owned output, and the naive kernels survive
// only as test oracles.
//
// The per-round evaluation scores each held-out sample on a worker's
// workspace, into the sample's own slot, and sums the slots in sample order,
// and it decodes incrementally. The decode state — a per-layer
// key/value cache and the count of positions in it — is owned by the
// Workspace, reset at the start of every GenerateWS or ScoreOptionsWS call
// and never valid across calls; within a call the prompt runs once and
// each new token, or each multiple-choice option, only extends it. The
// result is bit-identical to re-running the whole sequence, not close to
// it: the attention mask is causal and there is no positional term, so a
// cached row never changes; every other kernel works row by row; attention
// output accumulates in ascending position order in both forms; and the
// +0·v terms the full matmul adds for masked positions leave a float64
// accumulator's bits unchanged.
//
// Heterogeneous fleets are a first-class axis. A FleetSpec (WithFleet,
// WithFleetDistribution, WithSelector, WithDeadline) gives each participant
// a device profile — compute and uplink/downlink multipliers plus per-round
// availability, from a built-in distribution ("uniform", "tiered",
// "longtail", "flaky"), explicit profiles, or a JSON AvailabilityTrace —
// restricts each round to a selected cohort ("all", "uniform",
// "power-of-choice", "bandwidth"-aware over-provisioning; deterministic and
// idempotent in the fleet seed and round, independent of training
// randomness), and optionally enforces a straggler deadline with drop or
// wait semantics. The zero FleetSpec is inactive and bit-identical to the
// pre-fleet engine. Scenario files (LoadScenario; `fluxsim -scenario`, with
// shipped examples under scenarios/) bundle experiment axes and a fleet
// spec as one reviewable JSON artifact, and RoundEvent reports each round's
// Selected/Completed/Dropped counts and straggler-wait idle time.
//
// Server aggregation is a policy, not a barrier. An AggregationSpec
// (WithAggregation; the "aggregation" scenario field; `fluxsim -agg`)
// selects among three modes of the one server core (the end of RunRound):
// "sync" (the default — one barrier per round over the slots that made the
// deadline, every per-round output pinned by the golden fixtures), "async"
// (FedBuff-style buffered aggregation: the server flushes every BufferK
// arrivals into a version-tagged global model, scaling an update s versions
// stale by 1/(1+s)^StalenessAlpha, and never idles at a deadline), and
// "semisync" (the fleet deadline becomes a fixed round clock; on-time
// updates aggregate at the tick). Neither event-driven mode ever drops an
// update — late arrivals carry into the next round's buffer and merge
// stale — so the participation census conserves: Selected equals Completed
// plus the final Pending. RoundEvent carries the accounting (ModelVersion,
// Stale, Pending, DownlinkBytes), fluxtest holds every method to
// bit-identical async curves at any worker count, and the TCP transport
// rejects active aggregation specs (its wire protocol is synchronous).
//
// The determinism contract is pinned at run time by the goldens,
// serial ≡ parallel and in-process ≡ TCP bit equality, and enforced
// statically where no runtime test can see a violation. cmd/fluxvet
// (backed by internal/analysis, dependency-free) lints the tree in CI —
// test files included — with five analyzers: maporder (no map-order
// iteration into results), wallclock (no time.Now/Since/Sleep in
// simulation code — simulated time flows through internal/simtime),
// globalrand (no process-global or wall-clock-seeded math/rand; split
// streams from the experiment seed), strictdecode (config JSON must be
// decoded with DisallowUnknownFields, as LoadScenario does), and
// sharedwrite (ForEachOf/ForEachCohort callbacks and Participant function
// literals write only participant-indexed state). Each flags the offending site itself.
// Deliberate exceptions are annotated in source with
// //fluxvet:unordered <reason> or //fluxvet:allow <analyzer> <reason>; an
// empty reason, an unknown analyzer name or a stale suppression is itself
// a finding. Run it locally with `go run ./cmd/fluxvet ./...`; see README
// "Determinism contract".
//
// Observability is deterministic too. Three sinks hang off the round loop:
// WithTrace streams a Chrome trace-event timeline over simulated time (round
// spans, per-phase child spans, one lane per participant, flush spans under
// event-driven aggregation — open it in Perfetto), WithRunLog streams a
// structured JSONL log (one run header, one record per round, one per cohort
// member with device, phase seconds, traffic, and staleness), and
// WithMetrics publishes live counters and gauges into a MetricsRegistry
// whose /metrics handler speaks Prometheus text (ServerConfig.MetricsAddr
// and `fluxserver -metrics` expose the same registry for TCP deployments).
// Every timestamp comes from the simulated clock and every record is
// serialized in a stable order, so trace and run-log bytes are bit-identical
// across worker counts and same-seed runs — fluxtest's
// ObservabilityDeterminism check pins that, along with span durations
// reproducing RoundEvent.Phases exactly. Disabled sinks cost one nil check
// per round and zero allocations. `fluxsim -trace/-runlog` write the sinks
// for a scenario run, and `fluxsim -trace-summary` condenses a saved trace
// into critical path, per-phase totals, server idle, and the slowest
// participants.
//
// Per-round accuracy, simulated time, and wire traffic stream out through
// RoundEvent callbacks (WithRoundEvents). Serve and Join run the
// cross-machine parameter-server deployment that cmd/fluxserver and
// cmd/fluxclient wrap. Experiments and RunExperiment regenerate the paper's
// tables and figures; cmd/fluxsim is the equivalent CLI.
//
// See README.md for a quickstart and a tour of the repository.
package flux

// Package sim is the discrete-time datacenter simulator: it replays the
// workload trace against the layout/thermal/power physics, invokes a
// scheduling Policy at each decision point (VM placement, request routing,
// instance configuration, power capping), applies hardware thermal
// throttling and power capping, injects cooling/power failures, and records
// the metrics behind the paper's evaluation figures.
//
// # Simulation modes
//
// The engine runs one of two SaaS demand models, selected by the compiled
// scenario:
//
//   - Binned (the default): each endpoint's recorded or generated token
//     demand is routed per tick as fluid prefill/decode backlog
//     (Policy.Route → Instance.EnqueueBulk), and service quality is
//     aggregate (served/demanded tokens, analytic SLO violation fractions).
//   - Request-level replay (Scenario.Requests non-empty): each SaaS instance
//     runs a continuous-batching queue (llm.RequestQueue) fed by the log's
//     individual arrivals. Requests are admitted once their arrival falls
//     inside a completed tick, routed per request (RequestRouter, or the
//     engine's least-queued-work default), and every completion yields exact
//     TTFT, max time-between-tokens, and queueing-delay samples plus SLO
//     attainment, recorded per endpoint on the Result.
//
// # Compilation and caching
//
// Compilation splits scenario construction into immutable artifacts
// (layout, workload, request log) shared read-only across runs. CompileCache
// is the one path that builds them: it memoizes whole compilations under
// content-hash keys (ScenarioKey) and layouts under their own, and
// deduplicates concurrent compiles of one key, so campaign grids and
// repeated what-ifs skip redundant work; Compile goes through a private
// cache. Every compilation carries its key (CompiledScenario.Key). The
// runtime-only fields (Tick, Failures, Observer, the climate Region and
// StartOffset, and the policy parameters SLOSched and PowerGov) stay out of
// the key, and CompiledScenario.ForScenario adopts exactly those from a
// run's scenario, keeping the compiled value of every other field; each run
// builds its own outside-temperature series from its climate.
//
// # Determinism
//
// Every run is a pure function of its scenario: seeded RNG streams drive
// workload generation and noise, the tick kernel is one serial pass in
// ascending server ID whose order is the order of every cross-server sum,
// and request completions are harvested in ascending VM-ID order at
// departure and end of run. Runs share only immutable compiled artifacts,
// and RunParallel, the worker pool campaigns and the paper's figures fan
// independent runs out on, collects results in job order, so reports are
// byte-identical at any -parallel setting.
package sim

// Package scenario implements declarative simulation scenarios: a JSON spec
// format describing one simulation setup (layout scale and GPU mix, workload
// mix, weather, oversubscription, emergency schedule, policy set) plus sweep
// axes that expand the spec into a campaign grid. The campaign runner
// compiles each unique scenario once (sim.Compile) and fans the runs out
// across a bounded worker pool (sim.RunParallel), emitting deterministic
// text/CSV/JSON reports. It owns the presets' quick-run scaling rules
// (Spec.Scale).
//
// Specs make every "what-if" campaign a committed file instead of new code:
// heterogeneous A100+H100 fleets, weather sweeps, rolling emergencies. The
// paper's evaluation figures (internal/experiments) run as spec campaigns
// too. See examples/scenarios/.
//
// A spec whose workload carries a per-request log (workload.requests, a CSV
// recorded by tapas-trace) runs in request-level replay mode: report columns
// can then include per-endpoint TTFT/TBT/queueing-delay percentiles and SLO
// attainment (see report.go's sloMetrics and the "@ep<N>" metric suffix),
// and transform.demand_scale axes scale the request log together with the
// binned demand.
package scenario

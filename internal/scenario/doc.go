// Package scenario implements declarative simulation scenarios: a JSON spec
// format describing one simulation setup (layout scale and GPU mix, workload
// mix, weather, oversubscription, emergency schedule, policy set) plus sweep
// axes that expand the spec into a campaign grid. The campaign runner
// compiles each unique scenario once (sim.Compile) and fans the runs out
// across a bounded worker pool (sim.RunParallel), emitting deterministic
// text/CSV/JSON reports. It owns the presets' quick-run scaling rules
// (Spec.Scale).
//
// Every parameter a sweep axis sets is declared once, in the params table
// (params.go): its value kind (number, whole number, string or duration
// string), its valid range and the sim.Scenario field it writes. Spec fields
// of the same name go through the same entries before scaling, and Validate
// checks them by applying them to a scratch scenario; axes apply them to
// each grid point after scaling and are checked when the campaign expands.
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

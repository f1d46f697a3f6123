// Package llm models LLM inference serving the way the paper uses it: a
// configuration space (model size, quantization, tensor parallelism, batch
// size, GPU frequency) with per-phase (prefill/decode) performance, power and
// temperature profiles (Fig. 15), goodput under TTFT/TBT SLOs (Fig. 16), a
// Pareto frontier for the Instance Configurator, and two execution models —
// a fluid per-tick Instance for cluster-scale binned simulation, and a
// continuous-batching RequestQueue that serves individual Requests and
// reports per-request TTFT / time-between-tokens / queueing delay for
// request-level replay. An iteration-level EngineSim serves a single
// instance on its own clock; no experiment runs it, and the RequestQueue's
// tests check the queue against it.
package llm

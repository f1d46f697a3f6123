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
//
// A Profile lists its entries in goodput order and indexes them two ways:
// by exact configuration (Entry) and by reload class, the (model,
// quantization, TP) triple a configuration keeps when only its batch size
// and frequency change. Candidates hands the Instance Configurator the
// entries a search has to visit, in goodput order: the full-quality ones
// under a quality floor of 1, and only the current class while reloads are
// gated — 18 classes of at most 20 entries per GPU generation.
//
// A decode step streams the weights once (a term that depends only on the
// hardware and the configuration) and adds a KV overhead per running
// sequence. An Instance caches the weight-streaming term with its other
// rates whenever its configuration or hardware changes, so a request
// queue's decode step adds only the batch term, through the same helper as
// DecodeStepTime and equal to it bit for bit.
package llm

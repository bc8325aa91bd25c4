// Package server exposes trained NeuroCard estimators over an HTTP JSON API:
// a model registry with atomic hot swap, single/batch/seeded estimation on
// the pooled zero-alloc inference machinery, health and metrics endpoints,
// and a load-test harness hook. cmd/neurocardd is the daemon wrapper.
//
// # Request path
//
// Every estimate runs decode → resolve → execute → encode (estimate.go), a
// physical model as the one-shard identity route, each item through one
// fault ladder: breaker, model or histogram fallback, sanity guard (DESIGN.md
// §2.6). Singles run on estimate lanes, one per core (§2.5); batches as one
// EstimateItems call per shard entry; JSON and a binary protocol share the
// endpoint. Deadlines propagate end to end, and neither concurrency nor the
// wire format changes a result: each query keeps its own (seed, index) RNG.
//
// # Models and precision
//
// Registry entries are immutable; a hot reload builds the replacement off
// to the side and swaps the pointer, so in-flight requests finish on the
// old model. Each load may choose its serving precision — the daemon-wide
// default (-precision), a per-load override (LoadRequest.Precision), or the
// checkpoint's own — and models at different widths serve concurrently.
// /metrics exports per-model resident kernel bytes
// (neurocard_model_weight_bytes) and the active width
// (neurocard_model_precision_info) alongside the latency, SLO, breaker,
// estimate-lane, and plan-cache series.
package server

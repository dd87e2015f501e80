// Package repro is a from-scratch Go reproduction of Dubach, Jones,
// Bonilla and O'Boyle, "A Predictive Model for Dynamic Microarchitectural
// Adaptivity Control" (MICRO 2010): a cycle-level adaptive out-of-order
// processor simulator with Wattch/Cacti-style power models, SPEC-CPU-2000-
// style synthetic workloads, temporal-histogram hardware counters,
// SimPoint-style phase analysis, and the per-parameter soft-max predictor
// that drives runtime reconfiguration.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/report regenerates every table and figure of the paper's
// evaluation, its ablations and the multicore extension.
package repro

//! # mpr-bench
//!
//! The workspace's two gated `cargo bench` targets. Each one asserts
//! its floors and writes a JSON record at the repo root:
//!
//! * `strike_throughput` — batched and per-strike golden-prefix replay
//!   against the naive full rerun, per workload; writes
//!   `BENCH_strikes.json`.
//! * `adaptive_sampling` — fixed against adaptive campaign budgets at
//!   the pinned CI-width targets; writes `BENCH_sampling.json`.
//!
//! Run one with `cargo bench -p mpr-bench --bench <name>` (append
//! `-- --quick` for the CI scale). `mpr report` regenerates the paper's
//! tables and figures; `perfbench` times them end to end.

//! # ffs-bench — Criterion benchmarks for the FluidFaaS reproduction
//!
//! Four bench suites:
//!
//! * `figures` — one benchmark per paper table/figure, running the same
//!   artifact table as the `exp` binary on shortened traces.
//! * `substrate` — microbenchmarks of the building blocks (event loop,
//!   partition enumeration, planner, trace generation).
//! * `ablations` — the ablation experiment's arms (CV ranking, time
//!   sharing and migration off, Erlang-C scaling, transfer-cost
//!   sensitivity) plus ranked vs unranked planning.
//! * `hotpath` — per-layer microbenchmarks of the engine's hot path (CI
//!   runs it in `--test` smoke mode).
//!
//! Run with `cargo bench --workspace`.

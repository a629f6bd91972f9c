//! Per-backend SIMD microkernels and inference over int8-rounded weights. The
//! measurement bodies live in `cirgps_bench::perf` so `bench_json` can
//! snapshot them too.

use criterion::{criterion_group, criterion_main};

criterion_group!(
    benches,
    cirgps_bench::perf::simd_kernels_suite,
    cirgps_bench::perf::quantized_infer_suite
);
criterion_main!(benches);

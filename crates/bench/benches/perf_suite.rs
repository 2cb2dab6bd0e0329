//! PERF-SUITE: tracked timings for the simulator's hot paths.
//!
//! Mirrors the `deepnote perf` subcommand inside the bench harness so
//! regressions show up in the same place as the paper benches:
//!
//! * the Table 1 range matrix on the experiment pool vs forced
//!   single-thread (`DEEPNOTE_THREADS=1`),
//! * the Figure 2 closed-form sweep,
//! * the separated paper campaign,
//! * pool dispatch overhead: generic (unboxed) jobs vs the old
//!   `Box<dyn FnOnce>` calling convention through `try_run_all`.
//!
//! The last pair is the regression guard for the pool's generic API:
//! if dispatch ever forces jobs back onto the heap, `dispatch_boxed`
//! and `dispatch_generic` converge.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use deepnote_acoustics::{Distance, SweepPlan};
use deepnote_cluster::prelude::*;
use deepnote_core::experiments::{frequency, range};
use deepnote_core::parallel::{try_run_all, THREADS_ENV};
use deepnote_sim::SimDuration;
use std::hint::black_box;

/// Jobs per dispatch-overhead round: enough that per-job costs dominate
/// the pool's fixed setup.
const DISPATCH_JOBS: u64 = 4096;

fn bench_matrix(c: &mut Criterion) {
    let prior = std::env::var(THREADS_ENV).ok();
    std::env::set_var(THREADS_ENV, "1");
    c.bench_function("perf_suite/tab1_matrix_single_thread", |b| {
        b.iter(|| black_box(range::table1(2)))
    });
    match prior {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    c.bench_function("perf_suite/tab1_matrix_pool", |b| {
        b.iter(|| black_box(range::table1(2)))
    });
    c.bench_function("perf_suite/fig2_sweep", |b| {
        b.iter(|| {
            black_box(frequency::figure2(
                Distance::from_cm(1.0),
                &SweepPlan::paper_sweep(),
            ))
        })
    });
}

fn bench_campaign(c: &mut Criterion) {
    let config = CampaignConfig::paper_duel(PlacementPolicy::Separated, SimDuration::from_secs(30));
    c.bench_function("perf_suite/campaign_separated", |b| {
        b.iter(|| black_box(run_campaign(&config).expect("campaign run")))
    });
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    c.bench_function("perf_suite/dispatch_generic", |b| {
        b.iter(|| {
            let jobs: Vec<_> = (0..DISPATCH_JOBS)
                .map(|i| move || i.wrapping_mul(2_654_435_761) ^ (i >> 3))
                .collect();
            black_box(try_run_all(jobs))
        })
    });
    c.bench_function("perf_suite/dispatch_boxed", |b| {
        b.iter(|| {
            let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..DISPATCH_JOBS)
                .map(|i| {
                    Box::new(move || i.wrapping_mul(2_654_435_761) ^ (i >> 3))
                        as Box<dyn FnOnce() -> u64 + Send>
                })
                .collect();
            black_box(try_run_all(jobs))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matrix, bench_campaign, bench_dispatch_overhead
}
criterion_main!(benches);

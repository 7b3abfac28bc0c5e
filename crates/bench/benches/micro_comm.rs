//! Micro-benchmarks for the communication substrate: the simulated
//! AllReduce arithmetic at model scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fda_comm::SimNetwork;
use std::time::Duration;

fn bench_comm(c: &mut Criterion) {
    let mut g = c.benchmark_group("comm");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for &(k, n) in &[(4usize, 16_384usize), (8, 16_384), (8, 131_072)] {
        g.bench_function(format!("sim_allreduce_k{k}_n{n}"), |b| {
            let mut net = SimNetwork::new(k);
            let bufs: Vec<Vec<f32>> = (0..k).map(|i| vec![i as f32; n]).collect();
            b.iter(|| {
                let mut local = bufs.clone();
                net.allreduce_mean(black_box(&mut local));
                black_box(local);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_comm);
criterion_main!(benches);

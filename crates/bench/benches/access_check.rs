//! §4.2 microbench: the real (host) cost of the LOTS access-check fast
//! path — the operation the paper measured at 20–25 ns on a 2 GHz P4.
//! Compares the LOTS path (check + pin) with the LOTS-x path (check
//! only) and a bulk access amortizing one check over a row.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use lots_core::{run_cluster, ClusterOptions, DsmApi, DsmSlice, LotsConfig};
use lots_sim::machine::p4_fedora;

/// Run `f` once inside a single-node LOTS cluster and return its value.
/// These closures time *host* nanoseconds; a single-node run never
/// enters the scheduler on a mapped read, so the engine adds nothing
/// to the timed loops.
fn in_cluster<R: Send + 'static>(
    cfg: LotsConfig,
    f: impl Fn(&lots_core::Dsm) -> R + Send + Sync + 'static,
) -> R {
    let opts = ClusterOptions::new(1, cfg, p4_fedora());
    let (mut results, _) = run_cluster(opts, f);
    results.remove(0)
}

fn bench_access_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("access_check");
    g.throughput(Throughput::Elements(1));

    g.bench_function("lots_checked_read", |b| {
        // Measure inside the cluster: read a mapped valid object.
        let ns_per = in_cluster(LotsConfig::small(1 << 20), |dsm| {
            let a = dsm.alloc::<i64>(512);
            a.fill(3);
            let reps = 300_000u64;
            let t0 = std::time::Instant::now();
            let mut sink = 0i64;
            for i in 0..reps {
                sink = sink.wrapping_add(a.read((i % 512) as usize));
            }
            std::hint::black_box(sink);
            t0.elapsed().as_nanos() as f64 / reps as f64
        });
        b.iter_batched(|| ns_per, std::hint::black_box, BatchSize::SmallInput);
        eprintln!("  lots fast-path ≈ {ns_per:.1} ns/checked read (paper hardware: 20-25 ns)");
    });

    g.bench_function("lots_x_checked_read", |b| {
        let ns_per = in_cluster(LotsConfig::lots_x(1 << 20), |dsm| {
            let a = dsm.alloc::<i64>(512);
            a.fill(3);
            let reps = 300_000u64;
            let t0 = std::time::Instant::now();
            let mut sink = 0i64;
            for i in 0..reps {
                sink = sink.wrapping_add(a.read((i % 512) as usize));
            }
            std::hint::black_box(sink);
            t0.elapsed().as_nanos() as f64 / reps as f64
        });
        b.iter_batched(|| ns_per, std::hint::black_box, BatchSize::SmallInput);
        eprintln!("  lots-x fast-path ≈ {ns_per:.1} ns/checked read");
    });

    g.bench_function("bulk_row_read_1024", |b| {
        b.iter_batched(
            || {
                in_cluster(LotsConfig::small(4 << 20), |dsm| {
                    let a = dsm.alloc::<f64>(1024);
                    a.fill(1.5);
                    let t0 = std::time::Instant::now();
                    for _ in 0..1000 {
                        std::hint::black_box(a.read_vec(0, 1024));
                    }
                    t0.elapsed().as_nanos() as f64 / 1000.0
                })
            },
            std::hint::black_box,
            BatchSize::SmallInput,
        );
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_access_check
}
criterion_main!(benches);

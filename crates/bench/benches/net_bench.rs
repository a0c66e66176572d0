//! §3.6/§5 bench: real fragmentation + reassembly throughput of the
//! simulated UDP transport (the paper's 64 KB datagram limit means big
//! messages pay a split/rebuild cost at both ends).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lots_net::{cluster, WireSize};
use lots_sim::{NetModel, SimDuration, SimInstant};

#[derive(Debug, Clone)]
struct Hdr;

impl WireSize for Hdr {
    fn wire_size(&self) -> usize {
        16
    }
}

fn model() -> NetModel {
    NetModel {
        latency: SimDuration::from_micros(95),
        bandwidth_bps: 11_200_000,
        per_fragment: SimDuration::from_micros(18),
        max_datagram: 64 * 1024,
        window_frags: 8,
    }
}

fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_fragmentation");
    for &size in &[4 * 1024usize, 64 * 1024, 512 * 1024, 2 * 1024 * 1024] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(
            BenchmarkId::new("send_reassemble", size),
            &size,
            |b, &size| {
                let mut eps = cluster::<Hdr>(2, model());
                let (tx1, _) = eps.remove(1);
                let (_, mut rx0) = eps.remove(0);
                let payload: Bytes = vec![0xAB; size].into();
                b.iter(|| {
                    tx1.send(0, Hdr, payload.clone(), SimInstant(0));
                    let env = rx0.try_recv().expect("message lost");
                    assert_eq!(env.payload.len(), size);
                    std::hint::black_box(env.fragments)
                })
            },
        );
    }
    g.finish();

    // Virtual-time sanity: modeled one-way latency of those sizes.
    let m = model();
    for &size in &[4 * 1024usize, 64 * 1024, 512 * 1024, 2 * 1024 * 1024] {
        eprintln!(
            "  modeled one-way for {size:>8} B: {} ({} fragments)",
            m.one_way(size),
            m.fragments(size)
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_net
}
criterion_main!(benches);

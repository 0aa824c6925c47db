//! Criterion benchmark behind Figure 13: one-message round through the
//! middleware under base vs ADLP, across payload sizes, plus the
//! ack-gating ablation.
//!
//! Each iteration publishes one message and waits for its delivery at the
//! subscriber, measuring the full transport + interception path.

use adlp_core::{AdlpConfig, AdlpNodeBuilder, Scheme};
use adlp_logger::LogServer;
use adlp_pubsub::Master;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use crossbeam::channel::bounded;
use rand::SeedableRng;

const KEY_BITS: usize = 1024;

struct Link {
    publisher: adlp_pubsub::Publisher,
    delivered: crossbeam::channel::Receiver<u64>,
    _sub: adlp_pubsub::Subscription,
    _pub_node: adlp_core::AdlpNode,
    _sub_node: adlp_core::AdlpNode,
    _server: LogServer,
}

fn build_link(scheme: Scheme, seed: u64) -> Link {
    let master = Master::new();
    let server = LogServer::spawn();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let p = AdlpNodeBuilder::new("bench_pub")
        .scheme(scheme.clone())
        .key_bits(KEY_BITS)
        .build(&master, &server.handle(), &mut rng)
        .unwrap();
    let s = AdlpNodeBuilder::new("bench_sub")
        .scheme(scheme)
        .key_bits(KEY_BITS)
        .build(&master, &server.handle(), &mut rng)
        .unwrap();
    let publisher = p.advertise("data").unwrap();
    let (tx, rx) = bounded(16);
    let sub = s
        .subscribe("data", move |m| {
            let _ = tx.try_send(m.header.seq);
        })
        .unwrap();
    Link {
        publisher,
        delivered: rx,
        _sub: sub,
        _pub_node: p,
        _sub_node: s,
        _server: server,
    }
}

fn bench_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("message_latency");
    g.sample_size(30);
    for size in [20usize, 8_705, 100_000, 921_641] {
        let payload = vec![0xa5u8; size.saturating_sub(16)];
        g.throughput(Throughput::Bytes(size as u64));
        for (label, scheme) in [
            ("base", Scheme::Base),
            ("adlp", Scheme::adlp()),
            (
                "adlp_nogate",
                Scheme::Adlp(AdlpConfig::new().without_gating()),
            ),
        ] {
            let link = build_link(scheme, 7);
            g.bench_with_input(BenchmarkId::new(label, size), &payload, |b, payload| {
                b.iter(|| {
                    // Under gating the publish may be skipped while the
                    // previous ack is in flight; spin until accepted.
                    loop {
                        let r = link.publisher.publish(payload).unwrap();
                        if r.sent == 1 {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    link.delivered.recv().unwrap();
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_latency);
criterion_main!(benches);

//! Microbenchmarks of the hot-path components: the costs §4 of the paper
//! discusses for the kernel datapath (flowlet lookups, path selection,
//! ECMP hashing) plus the simulator's own event queue.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clove_core::{CloveEcnConfig, CloveEcnPolicy, FlowletConfig, FlowletTable, Wrr};
use clove_net::codec::{decode, encode_into};
use clove_net::hash::{ecmp_select, hash_tuple};
use clove_net::packet::{Encap, Feedback, Packet, PacketKind};
use clove_net::types::{FlowKey, HostId};
use clove_overlay::EdgePolicy;
use clove_sim::{Duration, EventQueue, QueueBackend, SimRng, Time};

fn bench_ecmp_hash(c: &mut Criterion) {
    let key = FlowKey::tcp(HostId(3), HostId(17), 49_321, 7471);
    c.bench_function("ecmp_hash_tuple", |b| b.iter(|| hash_tuple(black_box(&key), black_box(0xDEAD_BEEF))));
    c.bench_function("ecmp_select_of_4", |b| b.iter(|| ecmp_select(black_box(&key), black_box(0xDEAD_BEEF), black_box(4))));
}

fn bench_flowlet_table(c: &mut Criterion) {
    c.bench_function("flowlet_table_hit", |b| {
        let mut table = FlowletTable::new(FlowletConfig::with_gap(Duration::from_micros(100)));
        let flow = FlowKey::tcp(HostId(0), HostId(1), 1000, 80);
        let mut now = Time::ZERO;
        table.on_packet(now, flow, |_| 42);
        b.iter(|| {
            now += Duration::from_nanos(500);
            table.on_packet(black_box(now), black_box(flow), |_| 42)
        })
    });
    c.bench_function("flowlet_table_1k_flows", |b| {
        let mut table = FlowletTable::new(FlowletConfig::with_gap(Duration::from_micros(100)));
        let mut rng = SimRng::new(5);
        let flows: Vec<FlowKey> = (0..1000).map(|i| FlowKey::tcp(HostId(i % 16), HostId(16 + i % 16), 1000 + i as u16, 80)).collect();
        let mut now = Time::ZERO;
        b.iter(|| {
            now += Duration::from_nanos(200);
            let f = flows[rng.below(1000) as usize];
            table.on_packet(now, f, |_| 7)
        })
    });
}

fn bench_wrr_and_policy(c: &mut Criterion) {
    c.bench_function("wrr_pick_4", |b| {
        let mut w = Wrr::new();
        w.set_ports(&[1, 2, 3, 4]);
        b.iter(|| w.pick())
    });
    c.bench_function("clove_ecn_select_port", |b| {
        let mut p = CloveEcnPolicy::new(CloveEcnConfig::for_rtt(Duration::from_micros(20)));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30, 40]);
        let mut pkt = Packet::new(1, 1500, FlowKey::tcp(HostId(0), HostId(1), 5, 80), PacketKind::Data { seq: 0, len: 1400, dsn: 0 });
        let mut now = Time::ZERO;
        b.iter(|| {
            now += Duration::from_nanos(700);
            p.select_port(now, HostId(1), &mut pkt)
        })
    });
    c.bench_function("clove_ecn_feedback", |b| {
        let mut p = CloveEcnPolicy::new(CloveEcnConfig::for_rtt(Duration::from_micros(20)));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30, 40]);
        let mut now = Time::ZERO;
        let mut i = 0u16;
        b.iter(|| {
            now += Duration::from_nanos(900);
            i = i.wrapping_add(1);
            let port = [10u16, 20, 30, 40][(i % 4) as usize];
            p.on_feedback(now, HostId(1), &Feedback::Ecn { sport: port, congested: i.is_multiple_of(3) });
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    // Both backends on identical streams: the wheel/heap gap measured here
    // is the budget behind bench_baseline's regression floor.
    for (backend, name) in [(QueueBackend::Wheel, "wheel"), (QueueBackend::Heap, "heap")] {
        c.bench_function(&format!("event_queue_push_pop_1k_{name}"), |b| {
            b.iter(|| {
                let mut q: EventQueue<u64> = EventQueue::with_capacity_and_backend(1024, backend);
                for i in 0..1000u64 {
                    q.push(Time::from_nanos(i * 37 % 1000), i);
                }
                let mut acc = 0u64;
                while let Some(e) = q.pop() {
                    acc = acc.wrapping_add(e.event);
                }
                acc
            })
        });
        // The pre-sizing story: one pre-sized queue reused via clear()
        // across a 1M-event stream, the shape `event_capacity_hint`
        // optimizes for.
        c.bench_function(&format!("event_queue_push_pop_1M_{name}"), |b| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity_and_backend(1 << 20, backend);
            b.iter(|| {
                q.clear();
                for i in 0..1_000_000u64 {
                    q.push(Time::from_nanos(i * 37 % 999_983), i);
                }
                let mut acc = 0u64;
                while let Some(e) = q.pop() {
                    acc = acc.wrapping_add(e.event);
                }
                acc
            })
        });
        // Simulator-shaped load: a sliding window of pending events where
        // pops interleave with near-future pushes (the wheel's fast path).
        c.bench_function(&format!("event_queue_sliding_window_{name}"), |b| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity_and_backend(4096, backend);
            b.iter(|| {
                q.clear();
                for i in 0..2048u64 {
                    q.push(Time::from_nanos(i * 13 % 4096), i);
                }
                let mut acc = 0u64;
                for i in 0..100_000u64 {
                    let e = q.pop().expect("window never drains");
                    acc = acc.wrapping_add(e.event);
                    q.push(e.at + Duration::from_nanos(1 + i * 31 % 4096), i);
                }
                acc
            })
        });
    }
}

fn bench_codec(c: &mut Criterion) {
    c.bench_function("codec_encode_decode_roundtrip", |b| {
        let mut pkt = Packet::new(1, 1500, FlowKey::tcp(HostId(3), HostId(17), 49_321, 7471), PacketKind::Data { seq: 4096, len: 1400, dsn: 4096 });
        pkt.outer = Some(Encap { src: HostId(3), dst: HostId(17), sport: 51_000 });
        let mut scratch = Vec::new();
        b.iter(|| {
            encode_into(black_box(&pkt), &mut scratch).expect("codec scratch encode");
            decode(black_box(&scratch), 1).expect("codec scratch decode")
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ecmp_hash, bench_flowlet_table, bench_wrr_and_policy, bench_event_queue, bench_codec
);
criterion_main!(micro);

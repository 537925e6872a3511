//! Host-time cost of the `core` and `overlay` edge-policy calls, on
//! inputs shaped like the workload: the flow, destination and path counts
//! the traced run observed, not fixed toy sizes.

use crate::replay::Shape;
use clove_core::{FlowletConfig, FlowletTable, Wrr};
use clove_harness::{Profile, Scheme};
use clove_net::packet::{Feedback, Packet, PacketKind};
use clove_net::types::{FlowKey, HostId};
use clove_sim::{Duration, Time};
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed loop, and loops per figure (the median is reported).
const CALLS: u64 = 200_000;
const LOOPS: usize = 5;

/// Packet spacing at a 10 Gb/s access link with 1500-byte packets.
const PACKET_SPACING: Duration = Duration::from_nanos(1_200);

/// First outer source port of the discovered path set.
const BASE_PORT: u16 = 49_152;

/// Median ns per call of the edge-policy operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    pub flowlet_on_packet_ns: f64,
    pub wrr_pick_ns: f64,
    pub ecn_select_port_ns: f64,
    pub ecn_on_feedback_ns: f64,
}

fn median_ns(mut body: impl FnMut(u64)) -> f64 {
    let mut per_call: Vec<f64> = (0..LOOPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..CALLS {
                body(i);
            }
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    crate::stats::median(&mut per_call)
}

/// The flows a host's edge sees: `flows` connections spread round-robin
/// over `dsts` destinations.
fn flow(i: u64, flows: u64, dsts: u64) -> (FlowKey, HostId) {
    let f = i % flows;
    let dst = HostId(1 + (f % dsts) as u32);
    (FlowKey::tcp(HostId(0), dst, 10_000 + (f / dsts) as u16, 5201), dst)
}

pub fn measure(shape: &Shape, profile: &Profile) -> Micro {
    let flows = shape.concurrent_flows.max(1) as u64;
    let dsts = shape.destinations.max(1) as u64;
    let ports: Vec<u16> = (0..shape.paths_per_dst.max(1) as u16).map(|p| BASE_PORT + p).collect();
    let at = |i: u64| Time::ZERO + PACKET_SPACING * i;

    let mut table = FlowletTable::new(FlowletConfig::with_gap(profile.flowlet_gap));
    let flowlet_on_packet_ns = median_ns(|i| {
        let (key, _) = flow(i, flows, dsts);
        black_box(table.on_packet(at(i), black_box(key), |id| BASE_PORT + (id % ports.len() as u64) as u16));
    });

    let mut wrr = Wrr::new();
    wrr.set_ports(&ports);
    let wrr_pick_ns = median_ns(|_| {
        black_box(wrr.pick());
    });

    // The policy the workload's Clove-ECN cells run, with every destination
    // holding the observed path set.
    let mut policy = Scheme::CloveEcn.build_policy(profile, 1);
    for d in 0..dsts {
        policy.on_paths_updated(Time::ZERO, HostId(1 + d as u32), &ports);
    }
    let ecn_select_port_ns = median_ns(|i| {
        let (key, dst) = flow(i, flows, dsts);
        let mut pkt = Packet::new(i, 1500, key, PacketKind::Data { seq: i * 1448, len: 1448, dsn: i * 1448 });
        black_box(policy.select_port(at(i), dst, &mut pkt));
    });
    let ecn_on_feedback_ns = median_ns(|i| {
        let dst = HostId(1 + (i % dsts) as u32);
        let fb = Feedback::Ecn { sport: ports[(i % ports.len() as u64) as usize], congested: i % 4 == 0 };
        policy.on_feedback(at(i), dst, black_box(&fb));
    });

    Micro { flowlet_on_packet_ns, wrr_pick_ns, ecn_select_port_ns, ecn_on_feedback_ns }
}

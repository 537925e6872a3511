//! The fabric's store of in-flight packets.
//!
//! A packet is parked in a [`PacketSlab`] once, when it enters the fabric,
//! and from then on only its 4-byte [`PacketId`] travels: through link
//! FIFOs, commit scratch, `Arrive` events and timing-wheel slots. Every hop
//! mutates the parked packet in place (TTL, ECN, INT, CONGA tag), so the
//! 128-byte record is never copied between layers. It leaves the slab
//! exactly once: taken on delivery to a host
//! ([`HostCtx::take`](crate::fabric::HostCtx::take)), or released on a
//! drop.
//!
//! `PacketId` is neither `Clone` nor `Copy`: each handle names one parked
//! packet, and consuming it is the only way to free the slot, so a slot
//! cannot be freed twice or read after it was freed.

use crate::packet::Packet;
use std::ops::{Index, IndexMut};

/// Handle to a packet parked in a [`PacketSlab`]. Move-only: whoever holds
/// it owns the packet until it is taken or released.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a dropped PacketId leaks its slab slot; take or release it"]
pub struct PacketId(u32);

/// Slots for in-flight packets plus a LIFO free list, so a freed slot is
/// the next one reused while it is still in cache.
#[derive(Debug, Default)]
pub struct PacketSlab {
    slots: Vec<Packet>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Park `pkt` and return its handle.
    pub(crate) fn park(&mut self, pkt: Packet) -> PacketId {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                PacketId(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("fewer than 2^32 packets in flight");
                self.slots.push(pkt);
                PacketId(i)
            }
        }
    }

    /// Remove the packet from the slab and hand it over. `Packet` owns no
    /// heap data, so the slot simply keeps stale bytes until `park` reuses
    /// it.
    pub(crate) fn take(&mut self, id: PacketId) -> Packet {
        let pkt = self.slots[id.0 as usize].clone();
        self.free.push(id.0);
        pkt
    }

    /// Free the packet's slot (the packet was dropped).
    pub(crate) fn release(&mut self, id: PacketId) {
        self.free.push(id.0);
    }

    /// Packets parked and not yet taken or released.
    pub(crate) fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl Index<&PacketId> for PacketSlab {
    type Output = Packet;
    fn index(&self, id: &PacketId) -> &Packet {
        &self.slots[id.0 as usize]
    }
}

impl IndexMut<&PacketId> for PacketSlab {
    fn index_mut(&mut self, id: &PacketId) -> &mut Packet {
        &mut self.slots[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::types::{FlowKey, HostId};

    fn pkt(uid: u64) -> Packet {
        Packet::new(uid, 100, FlowKey::tcp(HostId(0), HostId(1), 1, 2), PacketKind::FeedbackOnly)
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut slab = PacketSlab::default();
        let a = slab.park(pkt(1));
        let b = slab.park(pkt(2));
        assert_eq!(slab.in_flight(), 2);
        slab[&b].ttl = 7;
        assert_eq!(slab.take(b).ttl, 7);
        slab.release(a);
        assert_eq!(slab.in_flight(), 0);
        // Slot 0 was freed last, so it is reused first.
        let c = slab.park(pkt(3));
        assert_eq!(c, PacketId(0));
        assert_eq!(slab[&c].uid, 3);
        let d = slab.park(pkt(4));
        assert_eq!(d, PacketId(1));
        assert_eq!(slab.in_flight(), 2);
        slab.release(c);
        slab.release(d);
    }
}

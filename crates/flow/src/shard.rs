//! Canonical flow hashing for the sharded front half.
//!
//! The streaming driver in `snids-core` splits the front half (prefilter
//! → reassembly) into N shards, each owning its slice of the flow table.
//! Every packet must be routed to a shard by a key that three properties
//! pin down:
//!
//! 1. **Direction symmetry** — both directions of a conversation land on
//!    the same shard, so a future bidirectional analysis never has to
//!    join state across shards.
//! 2. **Fragment stability** — every fragment of an IP datagram lands on
//!    the same shard. Non-first fragments carry *no transport header*,
//!    so the canonical key cannot depend on ports: it is computed from
//!    the IP address pair alone, normalized so `(a, b)` and `(b, a)`
//!    hash identically.
//! 3. **Uniformity** — over random traffic the shards load-balance; the
//!    hash finishes with a full-avalanche mixer so structured address
//!    plans (one busy /16, sequential scanners) still spread.
//!
//! The cost of excluding ports is that all conversations between one
//! address pair co-locate — acceptable, because per-pair state (the flow
//! table's entries, sticky-source escalation) is exactly the state a
//! shard wants to own without locks.

use crate::key::FlowKey;
use snids_packet::Packet;
use std::net::Ipv4Addr;

/// splitmix64 finalizer: full avalanche, so close addresses (sequential
/// scans, one subnet) still spread across shards.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The canonical flow hash of an address pair: order-insensitive (the
/// pair is sorted before mixing) and independent of ports/protocol (so
/// non-first fragments, which carry no transport header, hash with the
/// rest of their datagram).
#[inline]
pub fn canonical_flow_hash(a: Ipv4Addr, b: Ipv4Addr) -> u64 {
    let (a, b) = (u32::from(a), u32::from(b));
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    mix64(((lo as u64) << 32) | hi as u64)
}

/// The shard (out of `shards`) the canonical hash routes this address
/// pair to. `shards == 0` is treated as 1.
#[inline]
pub fn shard_of_pair(a: Ipv4Addr, b: Ipv4Addr, shards: usize) -> usize {
    match shards {
        0 | 1 => 0,
        n => (canonical_flow_hash(a, b) % n as u64) as usize,
    }
}

/// The shard a directional [`FlowKey`] routes to. Direction-symmetric:
/// `shard_of_key(k, n) == shard_of_key(&k.reversed(), n)`.
#[inline]
pub fn shard_of_key(key: &FlowKey, shards: usize) -> usize {
    shard_of_pair(key.src, key.dst, shards)
}

/// The shard a decoded packet routes to, from its IP addresses alone —
/// defined for every IPv4 packet including non-first fragments (which
/// have no [`FlowKey`]). `None` for non-IP frames.
#[inline]
pub fn shard_of_packet(packet: &Packet, shards: usize) -> Option<usize> {
    let ip = packet.ip()?;
    Some(shard_of_pair(ip.src, ip.dst, shards))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_hash_ignores_order_and_ports() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(192, 168, 1, 10);
        assert_eq!(canonical_flow_hash(a, b), canonical_flow_hash(b, a));
        // Distinct pairs get distinct hashes (not a guarantee in general,
        // but these must not collide for the mixer to be doing anything).
        let c = Ipv4Addr::new(10, 0, 0, 2);
        assert_ne!(canonical_flow_hash(a, b), canonical_flow_hash(a, c));
    }

    #[test]
    fn shard_of_zero_or_one_is_zero() {
        let a = Ipv4Addr::new(1, 2, 3, 4);
        let b = Ipv4Addr::new(5, 6, 7, 8);
        assert_eq!(shard_of_pair(a, b, 0), 0);
        assert_eq!(shard_of_pair(a, b, 1), 0);
        assert!(shard_of_pair(a, b, 8) < 8);
    }
}

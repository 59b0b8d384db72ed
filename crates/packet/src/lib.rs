//! Packet model, protocol headers and pcap I/O for the snids NIDS.
//!
//! This crate is the substrate that replaces libpcap / live capture in the
//! paper's prototype. It provides:
//!
//! * zero-copy parsers for Ethernet II, IPv4, TCP and UDP headers,
//! * builders that assemble well-formed packets (with correct checksums)
//!   for the workload generators,
//! * a reader and writer for the classic pcap file format, so synthesized
//!   traces round-trip through the same representation a live tap would
//!   produce.
//!
//! The NIDS pipeline only ever consumes [`Packet`] values; whether they came
//! from a pcap file or a generator is invisible to later stages.
#![forbid(unsafe_code)]

pub mod checksum;
pub mod error;
pub mod ethernet;
pub mod ipv4;
pub mod packet;
pub mod pcap;
pub mod tcp;
pub mod udp;

pub use error::{Error, Result};
pub use ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
pub use ipv4::{IpProtocol, Ipv4Header, IPV4_MIN_HEADER_LEN};
pub use packet::{Packet, PacketBuilder, TransportSummary};
pub use pcap::{PcapReader, PcapRecord, PcapWriter, ReadStats, DEFAULT_SNAPLEN, MAX_RECORD_LEN};
pub use tcp::{TcpFlags, TcpHeader, TCP_MIN_HEADER_LEN};
pub use udp::{UdpHeader, UDP_HEADER_LEN};

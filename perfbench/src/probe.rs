//! The transport probe: a benchmark-side [`Link`] that wraps each
//! in-process channel and counts what the program puts on it.
//!
//! Every party's mesh is built with [`Endpoint::from_links`] over
//! [`ChannelLink::pair`], each link wrapped in a [`ProbeLink`]. The probe
//! counts bytes and frames sent and the time spent blocked in
//! `recv_bytes`, per party, and (in a traced run) records one span per
//! send and per receive. The run's correctness gate checks that the
//! probe's per-party byte count equals the program's own
//! `NetStats::bytes_sent` exactly.

use crate::spans;
use pivot_transport::{ChannelLink, Endpoint, Link, LinkError, NetConfig, NetStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One party's link-level counters, shared by all of its probe links.
#[derive(Debug, Default)]
pub struct PartyLinks {
    bytes_sent: AtomicU64,
    frames_sent: AtomicU64,
    recv_wait_ns: AtomicU64,
}

/// A point-in-time copy of [`PartyLinks`], subtractable to get the
/// traffic of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkSnapshot {
    pub bytes_sent: u64,
    pub frames_sent: u64,
    pub recv_wait_ns: u64,
}

impl LinkSnapshot {
    pub fn since(&self, earlier: &LinkSnapshot) -> LinkSnapshot {
        LinkSnapshot {
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            frames_sent: self.frames_sent - earlier.frames_sent,
            recv_wait_ns: self.recv_wait_ns - earlier.recv_wait_ns,
        }
    }

    pub fn add(&mut self, other: &LinkSnapshot) {
        self.bytes_sent += other.bytes_sent;
        self.frames_sent += other.frames_sent;
        self.recv_wait_ns += other.recv_wait_ns;
    }

    /// Simulated network delay the sender paid for this traffic under
    /// `net`: one latency charge per frame plus serialization time at the
    /// configured bandwidth (the model `NetConfig` sleeps by).
    pub fn sim_delay_s(&self, net: &NetConfig) -> f64 {
        self.frames_sent as f64 * net.latency.as_secs_f64()
            + self.bytes_sent as f64 * net.secs_per_byte()
    }
}

impl PartyLinks {
    pub fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            recv_wait_ns: self.recv_wait_ns.load(Ordering::Relaxed),
        }
    }
}

/// A counting wrapper around one in-process channel link.
pub struct ProbeLink {
    inner: ChannelLink,
    counters: Arc<PartyLinks>,
}

impl Link for ProbeLink {
    fn peer(&self) -> usize {
        self.inner.peer()
    }

    fn send_bytes(&self, bytes: Vec<u8>) -> Result<(), LinkError> {
        let _span = spans::open("link.send");
        self.counters
            .bytes_sent
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.inner.send_bytes(bytes)
    }

    fn recv_bytes(&self, timeout: Duration) -> Result<Vec<u8>, LinkError> {
        let _span = spans::open("link.recv");
        let start = Instant::now();
        let result = self.inner.recv_bytes(timeout);
        self.counters
            .recv_wait_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn attach_stats(&self, stats: &Arc<NetStats>) {
        self.inner.attach_stats(stats);
    }
}

/// A fully connected `m`-party probe mesh: one endpoint per party plus
/// the counters its links feed.
pub fn mesh(m: usize, net: &NetConfig) -> (Vec<Endpoint>, Vec<Arc<PartyLinks>>) {
    let counters: Vec<Arc<PartyLinks>> = (0..m).map(|_| Arc::default()).collect();
    let mut links: Vec<Vec<Option<Box<dyn Link>>>> =
        (0..m).map(|_| (0..m).map(|_| None).collect()).collect();
    for a in 0..m {
        for b in a + 1..m {
            let (at_a, at_b) = ChannelLink::pair(a, b);
            links[a][b] = Some(Box::new(ProbeLink {
                inner: at_a,
                counters: Arc::clone(&counters[a]),
            }));
            links[b][a] = Some(Box::new(ProbeLink {
                inner: at_b,
                counters: Arc::clone(&counters[b]),
            }));
        }
    }
    let endpoints = links
        .into_iter()
        .enumerate()
        .map(|(id, links)| Endpoint::from_links(id, links, net.clone()))
        .collect();
    (endpoints, counters)
}

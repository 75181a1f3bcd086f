//! Fluid-flow network model with max-min fair bandwidth sharing.
//!
//! The paper's testbed is a set of hosts with full-duplex 1 Gbps NICs behind
//! a non-blocking top-of-rack switch, so the only contended resources are
//! the NICs themselves. We model every TCP connection as a *channel*
//! (source NIC → destination NIC) carrying a FIFO queue of *segments*
//! (messages / transfer chunks). All channels that currently have data to
//! send share NIC capacity max-min fairly — the standard fluid approximation
//! of per-connection TCP fairness. This is what makes pre-copy's
//! retransmission traffic visibly depress YCSB response traffic in Table I.
//!
//! The model is *sans-scheduler*: it never touches the event queue. A driver
//! (in `agile-cluster`) asks [`Network::next_event_time`] for the earliest
//! delivery, schedules one simulation event there, and calls
//! [`Network::poll`] to collect deliveries. After any mutation (send, open,
//! close) the driver re-arms. Segment delivery = serialization at the
//! allocated rate + one-way propagation delay.
//!
//! Channel progress is computed lazily. Each channel caches the absolute
//! instant its head segment finishes serializing (`head_done`) and the
//! instant its head's remaining bytes were last brought up to date
//! (`since`). Remaining bytes are recomputed in one place only: when a
//! channel's allocated rate really changes. A head is complete once
//! `head_done` has passed (or it carries zero bytes), so advancing time
//! only walks the completions that fall inside the step. The fluid state
//! therefore depends on sends, completions and rate changes alone, never on
//! when or how often the driver polls.
//!
//! The hot path is incremental and allocation-free in steady state:
//!
//! * the water-filling pass reuses persistent scratch buffers and removes
//!   frozen channels by swap-remove instead of `retain`/`clone` per round;
//! * membership of the active set is tracked explicitly (swap-remove list +
//!   position map), so recomputation only runs when the set changes;
//! * `head_done` is refreshed only when the channel's rate actually changes
//!   (compared within [`RATE_EPS`]) or its head segment changes, so an
//!   arrival that leaves other NICs' shares untouched does not reschedule
//!   their completions;
//! * closing a channel removes its in-flight segments outright, so the
//!   delivery heap never carries dead entries;
//! * [`Network::poll`] fills a caller-owned buffer.
//!
//! Node and rack byte counters are up to date as of the last network
//! advance (any send, close, rate change or poll): transmit bytes count
//! when a segment finishes serializing, receive bytes when it is delivered.

use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};
use crate::units::Bandwidth;

/// A NIC endpoint (one per host).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// A rack: a set of NICs behind a shared ToR uplink. Traffic between two
/// nodes of the same rack never touches the uplink; traffic that leaves
/// (or enters) the rack consumes the rack's up (down) trunk capacity as an
/// additional water-filling constraint. Nodes with no rack assignment are
/// spine-attached (core switches, far-memory servers): a racked↔unracked
/// channel crosses the racked side's uplink only.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RackId(pub usize);

/// A point-to-point connection between two NICs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub usize);

/// Identifies one queued segment within the network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SegmentId(u64);

/// A completed delivery, reported by [`Network::poll`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delivery {
    /// The channel the segment travelled on.
    pub channel: ChannelId,
    /// Caller-chosen tag identifying the payload.
    pub tag: u64,
    /// Segment size in bytes.
    pub bytes: u64,
    /// Instant the last byte arrived at the receiver.
    pub delivered_at: SimTime,
}

/// Rates closer than this (bytes/sec) count as unchanged: far below one
/// byte per simulated second, far above f64 noise at 1 Gbps magnitudes.
const RATE_EPS: f64 = 1e-6;

/// Sentinel for "not in the active list".
const NO_POS: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Segment {
    tag: u64,
    bytes: u64,
}

#[derive(Clone, Debug)]
struct Channel {
    src: NodeId,
    dst: NodeId,
    queue: VecDeque<Segment>,
    /// Current allocated rate in bytes/sec (0 when idle).
    rate: f64,
    /// Optional per-channel rate cap (bytes/sec), e.g. a migration
    /// bandwidth limit.
    cap: Option<f64>,
    /// Bytes of the head segment still to serialize, as of `since`.
    remaining: f64,
    /// The instant `remaining` was last brought up to date: when the head
    /// started serializing or the rate last changed.
    since: SimTime,
    /// Absolute instant the head segment finishes serializing at the
    /// current rate; `SimTime::MAX` when idle or rate 0. Only refreshed
    /// when the rate or the head segment changes.
    head_done: SimTime,
    delivered_bytes: u64,
    closed: bool,
    /// Rack uplink consumed on the transmit side (src's rack) when this
    /// channel leaves its rack; `None` for intra-rack / unracked paths.
    up_trunk: Option<u32>,
    /// Rack downlink consumed on the receive side (dst's rack).
    down_trunk: Option<u32>,
}

impl Channel {
    fn is_active(&self) -> bool {
        !self.closed && !self.queue.is_empty()
    }

    /// Bytes of the head segment still to serialize at `now`.
    fn head_remaining(&self, now: SimTime) -> f64 {
        (self.remaining - self.rate * now.saturating_since(self.since).as_secs_f64()).max(0.0)
    }

    /// Bytes queued for serialization at `now`, rounded up per segment.
    fn queued_bytes(&self, now: SimTime) -> u64 {
        match self.queue.front() {
            Some(_) => {
                let rest: u64 = self.queue.iter().skip(1).map(|s| s.bytes).sum();
                self.head_remaining(now).ceil() as u64 + rest
            }
            None => 0,
        }
    }

    /// Make the queue's front segment the head, starting to serialize at
    /// `t` at the current rate.
    fn start_head(&mut self, t: SimTime) {
        self.remaining = self.queue.front().map_or(0.0, |s| s.bytes as f64);
        self.since = t;
        self.head_done = if self.rate > 0.0 {
            t + SimDuration::from_secs_f64(self.remaining / self.rate)
        } else {
            SimTime::MAX
        };
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct NodeCounters {
    tx_bytes: u64,
    rx_bytes: u64,
}

#[derive(Clone, Debug)]
struct Node {
    tx_bw: f64,
    rx_bw: f64,
    counters: NodeCounters,
    /// The rack this NIC sits in, if the topology is hierarchical.
    rack: Option<u32>,
}

/// A ToR uplink: aggregate capacity shared by every channel crossing the
/// rack boundary, in each direction.
#[derive(Clone, Debug)]
struct Rack {
    up_bw: f64,
    down_bw: f64,
    up_bytes: u64,
    down_bytes: u64,
}

/// An in-flight (fully serialized, propagating) segment.
#[derive(Debug)]
struct InFlight {
    deliver_at: SimTime,
    seq: u64,
    delivery: Delivery,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (deliver_at, seq).
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// Persistent scratch for the water-filling pass, reused across calls so
/// steady-state recomputation performs no allocation.
#[derive(Debug, Default)]
struct Waterfill {
    tx_cap: Vec<f64>,
    rx_cap: Vec<f64>,
    tx_load: Vec<u32>,
    rx_load: Vec<u32>,
    up_cap: Vec<f64>,
    down_cap: Vec<f64>,
    up_load: Vec<u32>,
    down_load: Vec<u32>,
    unfrozen: Vec<u32>,
    capped: Vec<u32>,
}

/// The cluster network: NICs plus channels plus in-flight segments.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    channels: Vec<Channel>,
    racks: Vec<Rack>,
    prop_delay: SimDuration,
    last_update: SimTime,
    in_flight: BinaryHeap<InFlight>,
    next_segment: u64,
    next_flight_seq: u64,
    /// Indices of channels with data to send (unordered; swap-removed).
    active: Vec<u32>,
    /// Channel index → its position in `active`, or `NO_POS`.
    active_pos: Vec<u32>,
    scratch: Waterfill,
}

impl Network {
    /// Create an empty network with the given one-way propagation delay
    /// (switch + wire; ~25–50 µs for the paper's ToR Ethernet).
    pub fn new(prop_delay: SimDuration) -> Self {
        Network {
            nodes: Vec::new(),
            channels: Vec::new(),
            racks: Vec::new(),
            prop_delay,
            last_update: SimTime::ZERO,
            in_flight: BinaryHeap::new(),
            next_segment: 0,
            next_flight_seq: 0,
            active: Vec::new(),
            active_pos: Vec::new(),
            scratch: Waterfill::default(),
        }
    }

    /// Add a NIC with the given full-duplex capacities.
    pub fn add_node(&mut self, tx: Bandwidth, rx: Bandwidth) -> NodeId {
        self.nodes.push(Node {
            tx_bw: tx.as_bytes_per_sec(),
            rx_bw: rx.as_bytes_per_sec(),
            counters: NodeCounters::default(),
            rack: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Add a symmetric full-duplex NIC.
    pub fn add_symmetric_node(&mut self, bw: Bandwidth) -> NodeId {
        self.add_node(bw, bw)
    }

    /// Add a rack with the given ToR trunk capacities (rack→spine uplink,
    /// spine→rack downlink). Populate it with [`Network::set_node_rack`].
    pub fn add_rack(&mut self, up: Bandwidth, down: Bandwidth) -> RackId {
        self.racks.push(Rack {
            up_bw: up.as_bytes_per_sec(),
            down_bw: down.as_bytes_per_sec(),
            up_bytes: 0,
            down_bytes: 0,
        });
        RackId(self.racks.len() - 1)
    }

    /// Place a NIC in a rack. Channels already touching the node have their
    /// trunk membership recomputed, so topology can be declared in any
    /// order relative to channel creation.
    pub fn set_node_rack(&mut self, n: NodeId, r: RackId) {
        assert!(r.0 < self.racks.len());
        self.nodes[n.0].rack = Some(r.0 as u32);
        let nodes = &self.nodes;
        for ch in &mut self.channels {
            if ch.src == n || ch.dst == n {
                let (up, down) = trunk_membership(nodes[ch.src.0].rack, nodes[ch.dst.0].rack);
                ch.up_trunk = up;
                ch.down_trunk = down;
            }
        }
        if !self.active.is_empty() {
            self.recompute_rates();
        }
    }

    /// Cumulative bytes that left rack `r` over its uplink.
    pub fn rack_up_bytes(&self, r: RackId) -> u64 {
        self.racks[r.0].up_bytes
    }

    /// Cumulative bytes that entered rack `r` over its downlink.
    pub fn rack_down_bytes(&self, r: RackId) -> u64 {
        self.racks[r.0].down_bytes
    }

    /// Open a connection from `src` to `dst`.
    pub fn open_channel(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        assert!(src.0 < self.nodes.len() && dst.0 < self.nodes.len());
        let (up_trunk, down_trunk) =
            trunk_membership(self.nodes[src.0].rack, self.nodes[dst.0].rack);
        self.channels.push(Channel {
            src,
            dst,
            queue: VecDeque::new(),
            rate: 0.0,
            cap: None,
            remaining: 0.0,
            since: SimTime::ZERO,
            head_done: SimTime::MAX,
            delivered_bytes: 0,
            closed: false,
            up_trunk,
            down_trunk,
        });
        self.active_pos.push(NO_POS);
        ChannelId(self.channels.len() - 1)
    }

    /// Add `ci` to the active set.
    fn activate(&mut self, ci: usize) {
        debug_assert_eq!(self.active_pos[ci], NO_POS);
        self.active_pos[ci] = self.active.len() as u32;
        self.active.push(ci as u32);
    }

    /// Swap-remove `ci` from the active set and zero its allocation.
    fn deactivate(&mut self, ci: usize) {
        let pos = self.active_pos[ci];
        debug_assert_ne!(pos, NO_POS);
        self.active.swap_remove(pos as usize);
        if let Some(&moved) = self.active.get(pos as usize) {
            self.active_pos[moved as usize] = pos;
        }
        self.active_pos[ci] = NO_POS;
        let ch = &mut self.channels[ci];
        ch.rate = 0.0;
        ch.head_done = SimTime::MAX;
    }

    /// Set (or clear) a rate cap on a channel, e.g. QEMU's
    /// `migrate_set_speed`.
    pub fn set_channel_cap(&mut self, now: SimTime, ch: ChannelId, cap: Option<Bandwidth>) {
        self.advance_to(now);
        self.channels[ch.0].cap = cap.map(|b| b.as_bytes_per_sec());
        self.recompute_rates();
    }

    /// Change a NIC's full-duplex capacity at runtime (fault injection: a
    /// degraded or partitioned NIC). Zero bandwidth stalls every channel
    /// through the node — queued segments are held, not dropped — and a
    /// later restore lets them proceed.
    pub fn set_node_bw(&mut self, now: SimTime, n: NodeId, tx: Bandwidth, rx: Bandwidth) {
        self.advance_to(now);
        self.nodes[n.0].tx_bw = tx.as_bytes_per_sec();
        self.nodes[n.0].rx_bw = rx.as_bytes_per_sec();
        self.recompute_rates();
    }

    /// Queue a segment on a channel. Returns its id. `bytes == 0` is allowed
    /// (a pure control message costing only propagation delay).
    pub fn send(&mut self, now: SimTime, ch: ChannelId, bytes: u64, tag: u64) -> SegmentId {
        self.advance_to(now);
        let id = SegmentId(self.next_segment);
        self.next_segment += 1;
        let channel = &mut self.channels[ch.0];
        assert!(!channel.closed, "send on closed channel");
        let was_active = channel.is_active();
        channel.queue.push_back(Segment { tag, bytes });
        if !was_active {
            channel.start_head(now);
            self.activate(ch.0);
            self.recompute_rates();
        }
        // Zero-byte segments complete instantly; flush them into flight.
        self.complete_ready(now);
        id
    }

    /// Number of queued (not yet fully serialized) segments on a channel.
    pub fn queued_segments(&self, ch: ChannelId) -> usize {
        self.channels[ch.0].queue.len()
    }

    /// Bytes still queued for serialization on a channel, as of the last
    /// network advance.
    pub fn queued_bytes(&self, ch: ChannelId) -> u64 {
        self.channels[ch.0].queued_bytes(self.last_update)
    }

    /// Total bytes delivered over a channel so far.
    pub fn delivered_bytes(&self, ch: ChannelId) -> u64 {
        self.channels[ch.0].delivered_bytes
    }

    /// Current allocated rate of a channel, bytes/sec.
    pub fn channel_rate(&self, ch: ChannelId) -> f64 {
        self.channels[ch.0].rate
    }

    /// Close a channel: queued and in-flight segments are discarded.
    /// Returns the number of segments dropped.
    pub fn close_channel(&mut self, now: SimTime, ch: ChannelId) -> usize {
        self.advance_to(now);
        let channel = &mut self.channels[ch.0];
        if channel.closed {
            return 0;
        }
        let was_active = channel.is_active();
        channel.closed = true;
        let mut dropped = channel.queue.len();
        channel.queue.clear();
        // Remove (not just mark) this channel's in-flight segments, so the
        // delivery heap stays free of dead entries.
        let before = self.in_flight.len();
        self.in_flight.retain(|f| f.delivery.channel != ch);
        dropped += before - self.in_flight.len();
        if was_active {
            self.deactivate(ch.0);
            self.recompute_rates();
        }
        dropped
    }

    /// Cumulative transmit bytes for a node.
    pub fn node_tx_bytes(&self, n: NodeId) -> u64 {
        self.nodes[n.0].counters.tx_bytes
    }

    /// Cumulative receive bytes for a node.
    pub fn node_rx_bytes(&self, n: NodeId) -> u64 {
        self.nodes[n.0].counters.rx_bytes
    }

    /// Debug snapshot: `(channel index, src, dst, rate B/s, queued bytes)`
    /// for every channel with queued data, as of the last network advance.
    pub fn debug_active_channels(&self) -> Vec<(usize, usize, usize, f64, u64)> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_active())
            .map(|(i, c)| {
                (
                    i,
                    c.src.0,
                    c.dst.0,
                    c.rate,
                    c.queued_bytes(self.last_update),
                )
            })
            .collect()
    }

    /// The earliest instant at which a segment will be delivered, or `None`
    /// if the network is quiescent.
    ///
    /// This is the top of the in-flight heap or the earliest head
    /// completion plus the propagation delay, whichever comes first. It is
    /// exact: a completion at `H` is delivered at `H + prop`, and any
    /// completion it sets off happens at or after `H`, so polling only at
    /// delivery instants never misses one. [`Network::poll`] processes
    /// every serialization completion up to its `now` in time order.
    pub fn next_event_time(&self) -> Option<SimTime> {
        // The in-flight heap holds no cancelled entries, so its top is the
        // earliest in-flight delivery.
        let mut earliest = self.in_flight.peek().map_or(SimTime::MAX, |f| f.deliver_at);
        if let Some(done) = self.next_head_done() {
            earliest = earliest.min(done + self.prop_delay);
        }
        (earliest != SimTime::MAX).then_some(earliest)
    }

    /// The earliest head completion among serializing channels.
    fn next_head_done(&self) -> Option<SimTime> {
        self.active
            .iter()
            .map(|&ci| self.channels[ci as usize].head_done)
            .min()
            .filter(|&t| t != SimTime::MAX)
    }

    /// Advance to `now` and append to `out` every delivery due at or before
    /// `now`, ordered by delivery time.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Delivery>) {
        self.advance_to(now);
        while let Some(top) = self.in_flight.peek() {
            if top.deliver_at > now {
                break;
            }
            let f = self.in_flight.pop().expect("peeked");
            let ch = &mut self.channels[f.delivery.channel.0];
            ch.delivered_bytes += f.delivery.bytes;
            self.nodes[ch.dst.0].counters.rx_bytes += f.delivery.bytes;
            if let Some(r) = ch.down_trunk {
                self.racks[r as usize].down_bytes += f.delivery.bytes;
            }
            out.push(f.delivery);
        }
    }

    /// Walk every serialization completion at or before `now` in time
    /// order, moving finished segments into flight.
    fn advance_to(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        // A completion can start the next segment in a queue or change
        // rates, so find the earliest one afresh after each.
        while let Some(done) = self.next_head_done().filter(|&t| t <= now) {
            self.last_update = done.max(self.last_update);
            self.complete_ready(self.last_update);
        }
        self.last_update = now;
    }

    /// Move every head segment that has finished serializing by `t` into
    /// flight; recompute rates if channel membership changed (a head
    /// completing with more queued behind it leaves every allocation
    /// untouched).
    fn complete_ready(&mut self, t: SimTime) {
        let mut membership_changed = false;
        let mut i = 0;
        while i < self.active.len() {
            let ci = self.active[i] as usize;
            loop {
                let ch = &mut self.channels[ci];
                match ch.queue.front() {
                    Some(head) if head.bytes == 0 || ch.head_done <= t => {}
                    _ => break,
                }
                let seg = ch.queue.pop_front().expect("non-empty");
                // The next segment starts serializing now.
                ch.start_head(t);
                let src = ch.src;
                let up_trunk = ch.up_trunk;
                self.nodes[src.0].counters.tx_bytes += seg.bytes;
                if let Some(r) = up_trunk {
                    self.racks[r as usize].up_bytes += seg.bytes;
                }
                let delivery = Delivery {
                    channel: ChannelId(ci),
                    tag: seg.tag,
                    bytes: seg.bytes,
                    delivered_at: t + self.prop_delay,
                };
                let seq = self.next_flight_seq;
                self.next_flight_seq += 1;
                self.in_flight.push(InFlight {
                    deliver_at: delivery.delivered_at,
                    seq,
                    delivery,
                });
                // Zero-byte follow-up segments also complete in this loop.
            }
            if self.channels[ci].queue.is_empty() {
                // Swap-remove puts an unvisited channel at `i`; don't
                // advance.
                self.deactivate(ci);
                membership_changed = true;
            } else {
                i += 1;
            }
        }
        if membership_changed {
            self.recompute_rates();
        }
    }

    /// Water-filling max-min fair allocation across active channels,
    /// constrained by per-node tx/rx capacity and per-channel caps. Scratch
    /// buffers persist across calls; a channel whose allocation does not
    /// move by more than [`RATE_EPS`] keeps its cached completion time.
    fn recompute_rates(&mut self) {
        let Network {
            nodes,
            channels,
            racks,
            scratch,
            active,
            last_update,
            ..
        } = self;
        let n_nodes = nodes.len();
        let n_racks = racks.len();
        scratch.tx_cap.clear();
        scratch.tx_cap.extend(nodes.iter().map(|n| n.tx_bw));
        scratch.rx_cap.clear();
        scratch.rx_cap.extend(nodes.iter().map(|n| n.rx_bw));
        scratch.tx_load.clear();
        scratch.tx_load.resize(n_nodes, 0);
        scratch.rx_load.clear();
        scratch.rx_load.resize(n_nodes, 0);
        scratch.up_cap.clear();
        scratch.up_cap.extend(racks.iter().map(|r| r.up_bw));
        scratch.down_cap.clear();
        scratch.down_cap.extend(racks.iter().map(|r| r.down_bw));
        scratch.up_load.clear();
        scratch.up_load.resize(n_racks, 0);
        scratch.down_load.clear();
        scratch.down_load.resize(n_racks, 0);
        scratch.unfrozen.clear();
        for &ci in active.iter() {
            let ch = &channels[ci as usize];
            debug_assert!(ch.is_active());
            scratch.unfrozen.push(ci);
            scratch.tx_load[ch.src.0] += 1;
            scratch.rx_load[ch.dst.0] += 1;
            if let Some(r) = ch.up_trunk {
                scratch.up_load[r as usize] += 1;
            }
            if let Some(r) = ch.down_trunk {
                scratch.down_load[r as usize] += 1;
            }
        }

        while !scratch.unfrozen.is_empty() {
            // Candidate fair share at each saturated resource.
            let mut min_share = f64::INFINITY;
            for n in 0..n_nodes {
                if scratch.tx_load[n] > 0 {
                    min_share = min_share.min(scratch.tx_cap[n] / f64::from(scratch.tx_load[n]));
                }
                if scratch.rx_load[n] > 0 {
                    min_share = min_share.min(scratch.rx_cap[n] / f64::from(scratch.rx_load[n]));
                }
            }
            // Rack trunks participate exactly like NICs: an aggregate
            // capacity divided among the channels crossing them.
            for r in 0..n_racks {
                if scratch.up_load[r] > 0 {
                    min_share = min_share.min(scratch.up_cap[r] / f64::from(scratch.up_load[r]));
                }
                if scratch.down_load[r] > 0 {
                    min_share =
                        min_share.min(scratch.down_cap[r] / f64::from(scratch.down_load[r]));
                }
            }
            // A capped channel below the fair share freezes at its cap.
            scratch.capped.clear();
            let mut k = 0;
            while k < scratch.unfrozen.len() {
                let ci = scratch.unfrozen[k];
                let below_cap = channels[ci as usize].cap.is_some_and(|cap| cap < min_share);
                if below_cap {
                    scratch.unfrozen.swap_remove(k);
                    scratch.capped.push(ci);
                } else {
                    k += 1;
                }
            }
            if !scratch.capped.is_empty() {
                for idx in 0..scratch.capped.len() {
                    let ci = scratch.capped[idx];
                    let cap = channels[ci as usize].cap.expect("capped");
                    freeze(channels, scratch, *last_update, ci, cap);
                }
                continue;
            }
            if !min_share.is_finite() {
                break;
            }
            // Freeze every channel touching a bottleneck resource.
            let share = min_share;
            let mut frozen_any = false;
            let mut k = 0;
            while k < scratch.unfrozen.len() {
                let ci = scratch.unfrozen[k];
                let (s, d, up, down) = {
                    let ch = &channels[ci as usize];
                    (ch.src.0, ch.dst.0, ch.up_trunk, ch.down_trunk)
                };
                let saturated = share * (1.0 + 1e-12);
                let tx_share = scratch.tx_cap[s] / f64::from(scratch.tx_load[s]);
                let rx_share = scratch.rx_cap[d] / f64::from(scratch.rx_load[d]);
                let mut bottleneck = tx_share <= saturated || rx_share <= saturated;
                if let Some(r) = up {
                    bottleneck |= scratch.up_cap[r as usize]
                        / f64::from(scratch.up_load[r as usize])
                        <= saturated;
                }
                if let Some(r) = down {
                    bottleneck |= scratch.down_cap[r as usize]
                        / f64::from(scratch.down_load[r as usize])
                        <= saturated;
                }
                if bottleneck {
                    scratch.unfrozen.swap_remove(k);
                    freeze(channels, scratch, *last_update, ci, share);
                    frozen_any = true;
                } else {
                    k += 1;
                }
            }
            if !frozen_any {
                // Numerical safety valve: freeze everything at the share.
                while let Some(ci) = scratch.unfrozen.pop() {
                    freeze(channels, scratch, *last_update, ci, share);
                }
            }
        }
    }
}

/// Which trunks a `src → dst` channel consumes: the source rack's uplink
/// and the destination rack's downlink — but only when the channel crosses
/// a rack boundary (different racks, or one side spine-attached). A `None`
/// rack is the spine itself, so unracked↔unracked traffic uses no trunk.
fn trunk_membership(src_rack: Option<u32>, dst_rack: Option<u32>) -> (Option<u32>, Option<u32>) {
    if src_rack == dst_rack {
        (None, None)
    } else {
        (src_rack, dst_rack)
    }
}

/// Fix channel `ci`'s allocation at `rate`, consuming capacity at both
/// endpoints. Only when the rate moved by more than [`RATE_EPS`] is the
/// head's progress at the old rate settled up to `last_update` and its
/// completion instant refreshed; unchanged channels keep their scheduled
/// completion. This is the one place `remaining` is recomputed.
fn freeze(
    channels: &mut [Channel],
    scratch: &mut Waterfill,
    last_update: SimTime,
    ci: u32,
    rate: f64,
) {
    let ch = &mut channels[ci as usize];
    let new_rate = rate.max(0.0);
    scratch.tx_cap[ch.src.0] = (scratch.tx_cap[ch.src.0] - new_rate).max(0.0);
    scratch.rx_cap[ch.dst.0] = (scratch.rx_cap[ch.dst.0] - new_rate).max(0.0);
    scratch.tx_load[ch.src.0] -= 1;
    scratch.rx_load[ch.dst.0] -= 1;
    if let Some(r) = ch.up_trunk {
        scratch.up_cap[r as usize] = (scratch.up_cap[r as usize] - new_rate).max(0.0);
        scratch.up_load[r as usize] -= 1;
    }
    if let Some(r) = ch.down_trunk {
        scratch.down_cap[r as usize] = (scratch.down_cap[r as usize] - new_rate).max(0.0);
        scratch.down_load[r as usize] -= 1;
    }
    if (new_rate - ch.rate).abs() <= RATE_EPS {
        return;
    }
    ch.remaining = ch.head_remaining(last_update);
    ch.since = last_update;
    ch.rate = new_rate;
    ch.head_done = if new_rate > 0.0 {
        last_update + SimDuration::from_secs_f64(ch.remaining / new_rate)
    } else {
        SimTime::MAX
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS: f64 = 125e6;

    fn net3() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new(SimDuration::from_micros(50));
        let a = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let b = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let c = net.add_symmetric_node(Bandwidth::gbps(1.0));
        (net, a, b, c)
    }

    /// Drive the network to completion, returning (tag, time) pairs.
    fn drain(net: &mut Network) -> Vec<(u64, SimTime)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Some(t) = net.next_event_time() {
            buf.clear();
            net.poll(t, &mut buf);
            out.extend(buf.iter().map(|d| (d.tag, d.delivered_at)));
        }
        out
    }

    #[test]
    fn single_transfer_takes_bytes_over_bandwidth() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.send(SimTime::ZERO, ch, 125_000_000, 1); // 1 s at 1 Gbps
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        let t = done[0].1.as_secs_f64();
        assert!((t - 1.00005).abs() < 1e-3, "t={t}");
        assert_eq!(net.delivered_bytes(ch), 125_000_000);
    }

    #[test]
    fn two_channels_share_a_nic_fairly() {
        let (mut net, a, b, c) = net3();
        let ab = net.open_channel(a, b);
        let ac = net.open_channel(a, c);
        net.send(SimTime::ZERO, ab, 125_000_000, 1);
        net.send(SimTime::ZERO, ac, 125_000_000, 2);
        // Both share a's tx: each gets 0.5 Gbps → 2 s each.
        assert!((net.channel_rate(ab) - GBPS / 2.0).abs() < 1.0);
        assert!((net.channel_rate(ac) - GBPS / 2.0).abs() < 1.0);
        let done = drain(&mut net);
        assert_eq!(done.len(), 2);
        for (_, t) in &done {
            assert!((t.as_secs_f64() - 2.0).abs() < 1e-2, "t={t}");
        }
    }

    #[test]
    fn completion_releases_bandwidth_to_remaining_flow() {
        let (mut net, a, b, c) = net3();
        let ab = net.open_channel(a, b);
        let ac = net.open_channel(a, c);
        net.send(SimTime::ZERO, ab, 62_500_000, 1); // would take 1s alone at 0.5 share
        net.send(SimTime::ZERO, ac, 125_000_000, 2);
        let done = drain(&mut net);
        // ab finishes at 1 s (0.5 Gbps), then ac runs at 1 Gbps:
        // ac moved 62.5 MB in the first second, 62.5 MB remain → +0.5 s.
        let t_ab = done
            .iter()
            .find(|(tag, _)| *tag == 1)
            .unwrap()
            .1
            .as_secs_f64();
        let t_ac = done
            .iter()
            .find(|(tag, _)| *tag == 2)
            .unwrap()
            .1
            .as_secs_f64();
        assert!((t_ab - 1.0).abs() < 1e-2, "t_ab={t_ab}");
        assert!((t_ac - 1.5).abs() < 1e-2, "t_ac={t_ac}");
    }

    #[test]
    fn rx_side_is_also_a_bottleneck() {
        let (mut net, a, b, c) = net3();
        let ab = net.open_channel(a, b);
        let cb = net.open_channel(c, b);
        net.send(SimTime::ZERO, ab, 125_000_000, 1);
        net.send(SimTime::ZERO, cb, 125_000_000, 2);
        // Different tx NICs, same rx NIC b → each 0.5 Gbps.
        assert!((net.channel_rate(ab) - GBPS / 2.0).abs() < 1.0);
        assert!((net.channel_rate(cb) - GBPS / 2.0).abs() < 1.0);
    }

    #[test]
    fn fifo_within_a_channel() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.send(SimTime::ZERO, ch, 1_000_000, 1);
        net.send(SimTime::ZERO, ch, 1_000_000, 2);
        net.send(SimTime::ZERO, ch, 1_000_000, 3);
        let done = drain(&mut net);
        let tags: Vec<u64> = done.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert!(done[0].1 < done[1].1 && done[1].1 < done[2].1);
    }

    #[test]
    fn channel_cap_limits_rate() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.set_channel_cap(SimTime::ZERO, ch, Some(Bandwidth::mb_per_sec(12.5)));
        net.send(SimTime::ZERO, ch, 12_500_000, 1);
        let done = drain(&mut net);
        let t = done[0].1.as_secs_f64();
        assert!((t - 1.0).abs() < 1e-2, "t={t}");
    }

    #[test]
    fn cap_frees_bandwidth_for_others() {
        let (mut net, a, b, _) = net3();
        let ch1 = net.open_channel(a, b);
        let ch2 = net.open_channel(a, b);
        net.set_channel_cap(SimTime::ZERO, ch1, Some(Bandwidth::gbps(0.2)));
        net.send(SimTime::ZERO, ch1, 1_000_000, 1);
        net.send(SimTime::ZERO, ch2, 1_000_000, 2);
        assert!((net.channel_rate(ch1) - 0.2 * GBPS).abs() < 1.0);
        assert!((net.channel_rate(ch2) - 0.8 * GBPS).abs() < 1e3);
    }

    #[test]
    fn zero_byte_message_costs_propagation_only() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.send(SimTime::from_secs(1), ch, 0, 9);
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].1,
            SimTime::from_secs(1) + SimDuration::from_micros(50)
        );
    }

    #[test]
    fn close_channel_drops_everything() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.send(SimTime::ZERO, ch, 1_000_000, 1);
        net.send(SimTime::ZERO, ch, 1_000_000, 2);
        let dropped = net.close_channel(SimTime::ZERO, ch);
        assert_eq!(dropped, 2);
        assert!(drain(&mut net).is_empty());
    }

    #[test]
    fn close_channel_drops_in_flight_segments() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        let keep = net.open_channel(a, b);
        // A zero-byte message is fully serialized immediately: in flight.
        net.send(SimTime::ZERO, ch, 0, 1);
        net.send(SimTime::ZERO, keep, 0, 2);
        let dropped = net.close_channel(SimTime::ZERO, ch);
        assert_eq!(dropped, 1);
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 2);
        assert_eq!(net.next_event_time(), None);
    }

    #[test]
    fn close_idle_channel_is_free() {
        let (mut net, a, b, _) = net3();
        let idle = net.open_channel(a, b);
        let busy = net.open_channel(a, b);
        net.send(SimTime::ZERO, busy, 125_000_000, 1);
        let rate_before = net.channel_rate(busy);
        assert_eq!(net.close_channel(SimTime::ZERO, idle), 0);
        assert_eq!(net.channel_rate(busy), rate_before);
        assert_eq!(drain(&mut net).len(), 1);
    }

    #[test]
    fn idle_channels_consume_no_bandwidth() {
        let (mut net, a, b, c) = net3();
        let _idle = net.open_channel(a, c);
        let ch = net.open_channel(a, b);
        net.send(SimTime::ZERO, ch, 125_000_000, 1);
        assert!((net.channel_rate(ch) - GBPS).abs() < 1.0);
    }

    #[test]
    fn late_sender_shares_with_in_progress_flow() {
        let (mut net, a, b, c) = net3();
        let ab = net.open_channel(a, b);
        let ac = net.open_channel(a, c);
        net.send(SimTime::ZERO, ab, 250_000_000, 1); // 2 s alone
                                                     // After 1 s, a second flow starts.
        net.send(SimTime::from_secs(1), ac, 62_500_000, 2);
        let done = drain(&mut net);
        let t_ab = done.iter().find(|(t, _)| *t == 1).unwrap().1.as_secs_f64();
        let t_ac = done.iter().find(|(t, _)| *t == 2).unwrap().1.as_secs_f64();
        // ab: 125 MB in first second, then 0.5 Gbps: 125 MB remain → +2 s... but
        // ac finishes first: ac needs 1 s at 0.5 Gbps (done t=2), after which
        // ab runs at full rate again: at t=2 ab has 62.5 MB left → done t=2.5.
        assert!((t_ac - 2.0).abs() < 1e-2, "t_ac={t_ac}");
        assert!((t_ab - 2.5).abs() < 1e-2, "t_ab={t_ab}");
    }

    #[test]
    fn node_counters_track_traffic() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.send(SimTime::ZERO, ch, 10_000, 1);
        drain(&mut net);
        assert_eq!(net.node_tx_bytes(a), 10_000);
        assert_eq!(net.node_rx_bytes(b), 10_000);
        assert_eq!(net.node_rx_bytes(a), 0);
    }

    #[test]
    fn lone_segment_needs_no_empty_poll() {
        // A 4 KiB segment on an idle 1 Gbps channel: the first poll is at
        // the delivery instant and collects it, not at the end of
        // serialization.
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.send(SimTime::ZERO, ch, 4096, 1);
        let serialize = SimDuration::from_secs_f64(4096.0 / GBPS);
        let due = SimTime::ZERO + serialize + SimDuration::from_micros(50);
        assert_eq!(net.next_event_time(), Some(due));
        let mut out = Vec::new();
        net.poll(due, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].tag, out[0].delivered_at), (1, due));
        assert_eq!(net.next_event_time(), None);
    }

    #[test]
    fn queued_bytes_reflect_progress_at_last_advance() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.send(SimTime::ZERO, ch, 125_000_000, 1);
        net.send(SimTime::ZERO, ch, 1_000, 2);
        assert_eq!(net.queued_bytes(ch), 125_001_000);
        // Half a second at 1 Gbps serializes half the head.
        net.poll(SimTime::from_millis(500), &mut Vec::new());
        assert_eq!(net.queued_bytes(ch), 62_501_000);
        assert_eq!(net.queued_segments(ch), 2);
    }

    #[test]
    fn next_event_time_none_when_quiescent() {
        let (mut net, a, b, _) = net3();
        let _ch = net.open_channel(a, b);
        assert_eq!(net.next_event_time(), None);
        let ch2 = net.open_channel(a, b);
        net.send(SimTime::ZERO, ch2, 100, 1);
        assert!(net.next_event_time().is_some());
        drain(&mut net);
        assert_eq!(net.next_event_time(), None);
    }

    #[test]
    fn node_bw_degrade_stalls_and_restore_resumes() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.send(SimTime::ZERO, ch, 125_000_000, 1); // 1 s at 1 Gbps
                                                     // Partition a's NIC after 0.5 s: the transfer freezes in place.
        net.set_node_bw(
            SimTime::from_secs_f64(0.5),
            a,
            Bandwidth::bytes_per_sec(0.0),
            Bandwidth::bytes_per_sec(0.0),
        );
        assert_eq!(net.channel_rate(ch), 0.0);
        let mut out = Vec::new();
        net.poll(SimTime::from_secs(5), &mut out);
        assert!(out.is_empty());
        // Restore at t=5: the remaining 62.5 MB takes another 0.5 s.
        net.set_node_bw(
            SimTime::from_secs(5),
            a,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(1.0),
        );
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        let t = done[0].1.as_secs_f64();
        assert!((t - 5.50005).abs() < 1e-2, "t={t}");
    }

    #[test]
    fn node_bw_degrade_to_fraction_slows_transfer() {
        let (mut net, a, b, _) = net3();
        let ch = net.open_channel(a, b);
        net.set_node_bw(SimTime::ZERO, a, Bandwidth::gbps(0.1), Bandwidth::gbps(0.1));
        net.send(SimTime::ZERO, ch, 12_500_000, 1); // 1 s at 0.1 Gbps
        let done = drain(&mut net);
        let t = done[0].1.as_secs_f64();
        assert!((t - 1.0).abs() < 1e-2, "t={t}");
    }

    #[test]
    fn rack_uplink_is_shared_by_crossing_flows() {
        // Two racked hosts each send to a spine node. Each NIC alone could
        // do 1 Gbps, but the shared 1 Gbps ToR uplink halves both flows.
        let mut net = Network::new(SimDuration::from_micros(50));
        let h1 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let h2 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let spine = net.add_symmetric_node(Bandwidth::gbps(10.0));
        let rack = net.add_rack(Bandwidth::gbps(1.0), Bandwidth::gbps(1.0));
        net.set_node_rack(h1, rack);
        net.set_node_rack(h2, rack);
        let c1 = net.open_channel(h1, spine);
        let c2 = net.open_channel(h2, spine);
        net.send(SimTime::ZERO, c1, 125_000_000, 1);
        net.send(SimTime::ZERO, c2, 125_000_000, 2);
        assert!((net.channel_rate(c1) - GBPS / 2.0).abs() < 1.0);
        assert!((net.channel_rate(c2) - GBPS / 2.0).abs() < 1.0);
        drain(&mut net);
        assert_eq!(net.rack_up_bytes(rack), 250_000_000);
        assert_eq!(net.rack_down_bytes(rack), 0);
    }

    #[test]
    fn intra_rack_traffic_skips_the_uplink() {
        let mut net = Network::new(SimDuration::from_micros(50));
        let h1 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let h2 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let rack = net.add_rack(Bandwidth::gbps(0.1), Bandwidth::gbps(0.1));
        net.set_node_rack(h1, rack);
        net.set_node_rack(h2, rack);
        let ch = net.open_channel(h1, h2);
        net.send(SimTime::ZERO, ch, 125_000_000, 1);
        // A 0.1 Gbps trunk does not constrain in-rack traffic.
        assert!((net.channel_rate(ch) - GBPS).abs() < 1.0);
        drain(&mut net);
        assert_eq!(net.rack_up_bytes(rack), 0);
        assert_eq!(net.rack_down_bytes(rack), 0);
    }

    #[test]
    fn rack_downlink_constrains_incoming_flows() {
        // Spine (10G) fanning into two hosts behind a 1G downlink.
        let mut net = Network::new(SimDuration::from_micros(50));
        let spine = net.add_symmetric_node(Bandwidth::gbps(10.0));
        let h1 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let h2 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let rack = net.add_rack(Bandwidth::gbps(1.0), Bandwidth::gbps(1.0));
        net.set_node_rack(h1, rack);
        net.set_node_rack(h2, rack);
        let c1 = net.open_channel(spine, h1);
        let c2 = net.open_channel(spine, h2);
        net.send(SimTime::ZERO, c1, 125_000_000, 1);
        net.send(SimTime::ZERO, c2, 125_000_000, 2);
        assert!((net.channel_rate(c1) - GBPS / 2.0).abs() < 1.0);
        assert!((net.channel_rate(c2) - GBPS / 2.0).abs() < 1.0);
        drain(&mut net);
        assert_eq!(net.rack_down_bytes(rack), 250_000_000);
    }

    #[test]
    fn cross_rack_flow_consumes_both_trunks() {
        let mut net = Network::new(SimDuration::from_micros(50));
        let h1 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let h2 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let r1 = net.add_rack(Bandwidth::gbps(0.25), Bandwidth::gbps(1.0));
        let r2 = net.add_rack(Bandwidth::gbps(1.0), Bandwidth::gbps(1.0));
        net.set_node_rack(h1, r1);
        net.set_node_rack(h2, r2);
        let ch = net.open_channel(h1, h2);
        net.send(SimTime::ZERO, ch, 125_000_000, 1);
        // Bottleneck is r1's 0.25 Gbps uplink.
        assert!((net.channel_rate(ch) - 0.25 * GBPS).abs() < 1.0);
        drain(&mut net);
        assert_eq!(net.rack_up_bytes(r1), 125_000_000);
        assert_eq!(net.rack_down_bytes(r2), 125_000_000);
    }

    #[test]
    fn rack_assignment_after_channel_open_reroutes_trunks() {
        // set_node_rack recomputes membership of existing channels.
        let mut net = Network::new(SimDuration::from_micros(50));
        let h1 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let spine = net.add_symmetric_node(Bandwidth::gbps(10.0));
        let ch = net.open_channel(h1, spine);
        let rack = net.add_rack(Bandwidth::gbps(0.5), Bandwidth::gbps(0.5));
        net.set_node_rack(h1, rack);
        net.send(SimTime::ZERO, ch, 62_500_000, 1);
        assert!((net.channel_rate(ch) - 0.5 * GBPS).abs() < 1.0);
        drain(&mut net);
        assert_eq!(net.rack_up_bytes(rack), 62_500_000);
    }

    #[test]
    fn back_to_back_heads_keep_rate_without_recompute() {
        // A multi-segment queue completes heads without perturbing the
        // allocation; deliveries stay correctly ordered and complete.
        let (mut net, a, b, c) = net3();
        let ab = net.open_channel(a, b);
        let ac = net.open_channel(a, c);
        for i in 0..8u64 {
            net.send(SimTime::ZERO, ab, 12_500_000, i);
        }
        net.send(SimTime::ZERO, ac, 100_000_000, 100);
        let done = drain(&mut net);
        assert_eq!(done.len(), 9);
        let ab_times: Vec<_> = done.iter().filter(|(t, _)| *t < 100).collect();
        assert_eq!(ab_times.len(), 8);
        for w in ab_times.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(net.delivered_bytes(ab), 8 * 12_500_000);
        assert_eq!(net.delivered_bytes(ac), 100_000_000);
    }
}

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
//! * each NIC's transmit and receive side and each rack's uplink and
//!   downlink is one entry of a flat resource table listing the active
//!   channels on it; a channel lists its 2–4 resources;
//! * a change re-fills only the connected component it can reach, found by
//!   a breadth-first search channel → resource → channel (epoch-stamped, so
//!   nothing is cleared per call) from the changed channel, or from the
//!   channels left on the resources of one that went idle. Max-min fairness
//!   is separable across components, and the fill's outcome does not
//!   depend on the order it collected a component in, so every rate equals,
//!   bit for bit, what a fill seeded with every active channel gives;
//! * the water-filling pass reuses persistent scratch buffers and removes
//!   frozen channels by swap-remove instead of `retain`/`clone` per round;
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
    route: Route,
}

/// The resources a channel consumes: its source NIC's transmit side, its
/// destination NIC's receive side, then any rack trunks it crosses.
#[derive(Clone, Copy, Debug)]
struct Route {
    res: [u32; 4],
    len: u8,
}

impl Route {
    fn resources(&self) -> &[u32] {
        &self.res[..usize::from(self.len)]
    }
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
        self.refresh_head_done();
    }

    fn refresh_head_done(&mut self) {
        self.head_done = if self.rate > 0.0 {
            self.since + SimDuration::from_secs_f64(self.remaining / self.rate)
        } else {
            SimTime::MAX
        };
    }

    /// Take the allocation `rate` computed at `t`. Only when the rate moved
    /// by more than [`RATE_EPS`] is the head's progress at the old rate
    /// settled up to `t` and its completion instant refreshed; an unchanged
    /// channel keeps its scheduled completion. This is the one place
    /// `remaining` is recomputed.
    fn set_rate(&mut self, t: SimTime, rate: f64) {
        if (rate - self.rate).abs() <= RATE_EPS {
            return;
        }
        self.remaining = self.head_remaining(t);
        self.since = t;
        self.rate = rate;
        self.refresh_head_done();
    }
}

#[derive(Clone, Debug)]
struct Node {
    /// The rack this NIC sits in, if the topology is hierarchical.
    rack: Option<u32>,
    /// Resource id of the transmit side; the receive side is `res + 1`.
    res: u32,
}

/// One entry of the flat resource table. Resources come in pairs: a NIC's
/// transmit then receive side, a rack's uplink then downlink (the ToR
/// trunk shared by every channel crossing the rack boundary). Even ids
/// carry outgoing traffic, odd ids incoming.
#[derive(Clone, Debug)]
struct Resource {
    /// Capacity in bytes/sec.
    bw: f64,
    /// Cumulative bytes: counted on outgoing resources when a segment
    /// finishes serializing, on incoming ones when it is delivered.
    bytes: u64,
    /// Active channels using this resource (unordered; swap-removed).
    users: Vec<u32>,
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

/// Water-filling state of one resource, valid while its component fills.
#[derive(Clone, Copy, Debug, Default)]
struct ResFill {
    /// Capacity not yet handed to frozen channels.
    cap: f64,
    /// Unfrozen channels drawing on the resource.
    load: u32,
    /// The resource's fair share is this round's bottleneck share.
    saturated: bool,
    /// Search epoch that last reached the resource.
    seen: u64,
}

/// Persistent scratch for the water-filling pass, reused across calls so
/// steady-state recomputation performs no allocation.
#[derive(Debug, Default)]
struct Waterfill {
    /// Channels whose components the next pass re-fills.
    seeds: Vec<u32>,
    epoch: u64,
    /// Channel index → search epoch that last reached it.
    chan_seen: Vec<u64>,
    /// Resource id → its fill state.
    res: Vec<ResFill>,
    /// The component being filled: its resources, and its channels not yet
    /// frozen.
    comp_res: Vec<u32>,
    unfrozen: Vec<u32>,
    capped: Vec<u32>,
    /// `(channel, rate)` for every channel the last pass filled.
    frozen: Vec<(u32, f64)>,
}

/// The cluster network: NICs plus channels plus in-flight segments.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    channels: Vec<Channel>,
    /// Rack → resource id of its uplink; the downlink is the next id.
    racks: Vec<u32>,
    resources: Vec<Resource>,
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
            resources: Vec::new(),
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
        let res = self.add_resource_pair(tx, rx);
        self.nodes.push(Node { rack: None, res });
        NodeId(self.nodes.len() - 1)
    }

    /// Append two resources to the table; returns the first one's id.
    fn add_resource_pair(&mut self, a: Bandwidth, b: Bandwidth) -> u32 {
        let id = self.resources.len() as u32;
        self.resources.extend([a, b].map(|bw| Resource {
            bw: bw.as_bytes_per_sec(),
            bytes: 0,
            users: Vec::new(),
        }));
        id
    }

    /// Add a symmetric full-duplex NIC.
    pub fn add_symmetric_node(&mut self, bw: Bandwidth) -> NodeId {
        self.add_node(bw, bw)
    }

    /// Add a rack with the given ToR trunk capacities (rack→spine uplink,
    /// spine→rack downlink). Populate it with [`Network::set_node_rack`].
    pub fn add_rack(&mut self, up: Bandwidth, down: Bandwidth) -> RackId {
        let res = self.add_resource_pair(up, down);
        self.racks.push(res);
        RackId(self.racks.len() - 1)
    }

    /// Place a NIC in a rack. Channels already touching the node have their
    /// trunk membership recomputed, so topology can be declared in any
    /// order relative to channel creation.
    pub fn set_node_rack(&mut self, n: NodeId, r: RackId) {
        assert!(r.0 < self.racks.len());
        self.nodes[n.0].rack = Some(r.0 as u32);
        for ci in 0..self.channels.len() {
            let Channel { src, dst, .. } = self.channels[ci];
            if src != n && dst != n {
                continue;
            }
            let active = self.active_pos[ci] != NO_POS;
            if active {
                self.unlink(ci);
            }
            self.channels[ci].route = self.route(src, dst);
            if active {
                self.link(ci);
            }
        }
        self.scratch.seeds.extend_from_slice(&self.active);
        self.recompute_rates();
    }

    /// The resources a `src → dst` channel consumes under the current rack
    /// assignment.
    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        let (up, down) = trunk_membership(self.nodes[src.0].rack, self.nodes[dst.0].rack);
        let mut route = Route {
            res: [self.nodes[src.0].res, self.nodes[dst.0].res + 1, 0, 0],
            len: 2,
        };
        let up = up.map(|r| self.racks[r as usize]);
        let down = down.map(|r| self.racks[r as usize] + 1);
        for res in [up, down].into_iter().flatten() {
            route.res[usize::from(route.len)] = res;
            route.len += 1;
        }
        route
    }

    /// Cumulative bytes that left rack `r` over its uplink.
    pub fn rack_up_bytes(&self, r: RackId) -> u64 {
        self.resources[self.racks[r.0] as usize].bytes
    }

    /// Cumulative bytes that entered rack `r` over its downlink.
    pub fn rack_down_bytes(&self, r: RackId) -> u64 {
        self.resources[self.racks[r.0] as usize + 1].bytes
    }

    /// Open a connection from `src` to `dst`.
    pub fn open_channel(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        assert!(src.0 < self.nodes.len() && dst.0 < self.nodes.len());
        let route = self.route(src, dst);
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
            route,
        });
        self.active_pos.push(NO_POS);
        ChannelId(self.channels.len() - 1)
    }

    /// Add `ci` to the active set.
    fn activate(&mut self, ci: usize) {
        debug_assert_eq!(self.active_pos[ci], NO_POS);
        self.active_pos[ci] = self.active.len() as u32;
        self.active.push(ci as u32);
        self.link(ci);
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
        self.unlink(ci);
        let ch = &mut self.channels[ci];
        ch.rate = 0.0;
        ch.head_done = SimTime::MAX;
    }

    /// Add active channel `ci` to the users of its resources and seed the
    /// next fill with it.
    fn link(&mut self, ci: usize) {
        for &r in self.channels[ci].route.resources() {
            self.resources[r as usize].users.push(ci as u32);
        }
        self.scratch.seeds.push(ci as u32);
    }

    /// Remove `ci` from the users of its resources and seed the next fill
    /// with the channels left on them, which may now get more.
    fn unlink(&mut self, ci: usize) {
        let route = self.channels[ci].route;
        for &r in route.resources() {
            let users = &mut self.resources[r as usize].users;
            let k = users.iter().position(|&u| u as usize == ci);
            users.swap_remove(k.expect("linked"));
            self.seed_users(r);
        }
    }

    /// Seed the next fill with resource `r`'s component, if it has one: all
    /// of a resource's users share a component, so one of them suffices.
    fn seed_users(&mut self, r: u32) {
        if let Some(&user) = self.resources[r as usize].users.first() {
            self.scratch.seeds.push(user);
        }
    }

    /// Set (or clear) a rate cap on a channel, e.g. QEMU's
    /// `migrate_set_speed`.
    pub fn set_channel_cap(&mut self, now: SimTime, ch: ChannelId, cap: Option<Bandwidth>) {
        self.advance_to(now);
        self.channels[ch.0].cap = cap.map(|b| b.as_bytes_per_sec());
        self.scratch.seeds.push(ch.0 as u32);
        self.recompute_rates();
    }

    /// Change a NIC's full-duplex capacity at runtime (fault injection: a
    /// degraded or partitioned NIC). Zero bandwidth stalls every channel
    /// through the node — queued segments are held, not dropped — and a
    /// later restore lets them proceed.
    pub fn set_node_bw(&mut self, now: SimTime, n: NodeId, tx: Bandwidth, rx: Bandwidth) {
        self.advance_to(now);
        let tx_res = self.nodes[n.0].res;
        for (r, bw) in [(tx_res, tx), (tx_res + 1, rx)] {
            self.resources[r as usize].bw = bw.as_bytes_per_sec();
            self.seed_users(r);
        }
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
    /// Returns the tags of the dropped segments (queued ones in send order,
    /// then in-flight ones), so the caller can release their payloads.
    pub fn close_channel(&mut self, now: SimTime, ch: ChannelId) -> Vec<u64> {
        self.advance_to(now);
        let channel = &mut self.channels[ch.0];
        if channel.closed {
            return Vec::new();
        }
        let was_active = channel.is_active();
        channel.closed = true;
        let mut dropped: Vec<u64> = channel.queue.drain(..).map(|s| s.tag).collect();
        // Remove (not just mark) this channel's in-flight segments, so the
        // delivery heap stays free of dead entries.
        self.in_flight.retain(|f| {
            let keep = f.delivery.channel != ch;
            if !keep {
                dropped.push(f.delivery.tag);
            }
            keep
        });
        if was_active {
            self.deactivate(ch.0);
            self.recompute_rates();
        }
        dropped
    }

    /// Segments the network still holds: queued for serialization on any
    /// channel, or serialized and propagating. Each is one delivery to
    /// come.
    pub fn pending_segments(&self) -> usize {
        self.channels.iter().map(|c| c.queue.len()).sum::<usize>() + self.in_flight.len()
    }

    /// Cumulative transmit bytes for a node.
    pub fn node_tx_bytes(&self, n: NodeId) -> u64 {
        self.resources[self.nodes[n.0].res as usize].bytes
    }

    /// Cumulative receive bytes for a node.
    pub fn node_rx_bytes(&self, n: NodeId) -> u64 {
        self.resources[self.nodes[n.0].res as usize + 1].bytes
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
            let route = ch.route;
            self.count_bytes(route, 1, f.delivery.bytes);
            out.push(f.delivery);
        }
    }

    /// Add `bytes` to the counters of `route`'s outgoing (`side` 0) or
    /// incoming (`side` 1) resources.
    fn count_bytes(&mut self, route: Route, side: u32, bytes: u64) {
        for &r in route.resources().iter().filter(|&&r| r % 2 == side) {
            self.resources[r as usize].bytes += bytes;
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
    /// flight; re-fill the components of channels that went idle (a head
    /// completing with more queued behind it leaves every allocation
    /// untouched).
    fn complete_ready(&mut self, t: SimTime) {
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
                let route = ch.route;
                self.count_bytes(route, 0, seg.bytes);
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
            } else {
                i += 1;
            }
        }
        self.recompute_rates();
    }

    /// Re-fill the components of the pending seeds and apply the new
    /// rates; a no-op without seeds.
    fn recompute_rates(&mut self) {
        if self.scratch.seeds.is_empty() {
            return;
        }
        self.scratch.fill(&self.channels, &self.resources);
        for &(ci, rate) in &self.scratch.frozen {
            self.channels[ci as usize].set_rate(self.last_update, rate);
        }
    }

    /// The rate every channel would hold after a fill seeded with every
    /// active channel, from the current state. Scoped recomputation must
    /// leave exactly these rates; a read-only hook for tests.
    #[doc(hidden)]
    pub fn full_waterfill_rates(&self) -> Vec<f64> {
        let mut fill = Waterfill::default();
        fill.seeds.extend_from_slice(&self.active);
        fill.fill(&self.channels, &self.resources);
        let mut channels = self.channels.clone();
        for &(ci, rate) in &fill.frozen {
            channels[ci as usize].set_rate(self.last_update, rate);
        }
        channels.iter().map(|c| c.rate).collect()
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

impl Waterfill {
    /// Water-fill the component of every active seed (its channels linked
    /// through shared resources), each on its own, leaving the new rates in
    /// `frozen`. Consumes the seeds.
    fn fill(&mut self, channels: &[Channel], resources: &[Resource]) {
        self.frozen.clear();
        self.epoch += 1;
        self.chan_seen.resize(channels.len(), 0);
        self.res.resize(resources.len(), ResFill::default());
        for i in 0..self.seeds.len() {
            let seed = self.seeds[i] as usize;
            // A seed may have gone idle since it was pushed, or been reached
            // from an earlier seed.
            if self.chan_seen[seed] != self.epoch && channels[seed].is_active() {
                self.collect(seed as u32, channels, resources);
                self.fill_component(channels);
            }
        }
        self.seeds.clear();
    }

    /// Breadth-first search channel → resource → channel from `seed`,
    /// loading every resource reached with its capacity and load.
    fn collect(&mut self, seed: u32, channels: &[Channel], resources: &[Resource]) {
        let epoch = self.epoch;
        self.comp_res.clear();
        self.unfrozen.clear();
        self.unfrozen.push(seed);
        self.chan_seen[seed as usize] = epoch;
        let mut i = 0;
        while let Some(&ci) = self.unfrozen.get(i) {
            i += 1;
            for &r in channels[ci as usize].route.resources() {
                let state = &mut self.res[r as usize];
                if state.seen == epoch {
                    continue;
                }
                let Resource { bw, users, .. } = &resources[r as usize];
                *state = ResFill {
                    cap: *bw,
                    load: users.len() as u32,
                    saturated: false,
                    seen: epoch,
                };
                self.comp_res.push(r);
                for &u in users {
                    debug_assert!(channels[u as usize].is_active());
                    if self.chan_seen[u as usize] != epoch {
                        self.chan_seen[u as usize] = epoch;
                        self.unfrozen.push(u);
                    }
                }
            }
        }
    }

    /// Max-min fair allocation over the collected component, constrained
    /// by resource capacities and per-channel caps. Each round takes the
    /// smallest fair share among the resources; capped channels below it
    /// freeze at their cap, otherwise every channel on a resource at that
    /// share freezes at it. Bottlenecks are marked before any channel
    /// freezes, and capped channels freeze in index order, so the outcome
    /// does not depend on the order the search collected the channels in.
    fn fill_component(&mut self, channels: &[Channel]) {
        while !self.unfrozen.is_empty() {
            let mut min_share = f64::INFINITY;
            for &r in &self.comp_res {
                let state = &self.res[r as usize];
                if state.load > 0 {
                    min_share = min_share.min(state.cap / f64::from(state.load));
                }
            }
            // A capped channel below the fair share freezes at its cap.
            self.capped.clear();
            let mut k = 0;
            while k < self.unfrozen.len() {
                let ci = self.unfrozen[k];
                if channels[ci as usize].cap.is_some_and(|cap| cap < min_share) {
                    self.unfrozen.swap_remove(k);
                    self.capped.push(ci);
                } else {
                    k += 1;
                }
            }
            if !self.capped.is_empty() {
                self.capped.sort_unstable();
                for idx in 0..self.capped.len() {
                    let ci = self.capped[idx];
                    let cap = channels[ci as usize].cap.expect("capped");
                    self.freeze(channels, ci, cap);
                }
                continue;
            }
            if !min_share.is_finite() {
                break;
            }
            // Freeze every channel touching a bottleneck resource.
            let saturated = min_share * (1.0 + 1e-12);
            for &r in &self.comp_res {
                let state = &mut self.res[r as usize];
                state.saturated = state.load > 0 && state.cap / f64::from(state.load) <= saturated;
            }
            let unfrozen_before = self.unfrozen.len();
            let mut k = 0;
            while k < self.unfrozen.len() {
                let ci = self.unfrozen[k];
                let res = channels[ci as usize].route.resources();
                if res.iter().any(|&r| self.res[r as usize].saturated) {
                    self.unfrozen.swap_remove(k);
                    self.freeze(channels, ci, min_share);
                } else {
                    k += 1;
                }
            }
            if self.unfrozen.len() == unfrozen_before {
                // Numerical safety valve: freeze everything at the share.
                while let Some(ci) = self.unfrozen.pop() {
                    self.freeze(channels, ci, min_share);
                }
            }
        }
    }

    /// Fix channel `ci`'s allocation at `rate`, consuming it from each of
    /// the channel's resources.
    fn freeze(&mut self, channels: &[Channel], ci: u32, rate: f64) {
        let rate = rate.max(0.0);
        for &r in channels[ci as usize].route.resources() {
            let state = &mut self.res[r as usize];
            state.cap = (state.cap - rate).max(0.0);
            state.load -= 1;
        }
        self.frozen.push((ci, rate));
    }
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
        assert_eq!(net.pending_segments(), 2);
        let dropped = net.close_channel(SimTime::ZERO, ch);
        assert_eq!(dropped, [1, 2]);
        assert_eq!(net.pending_segments(), 0);
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
        assert_eq!(net.pending_segments(), 2);
        let dropped = net.close_channel(SimTime::ZERO, ch);
        assert_eq!(dropped, [1]);
        assert_eq!(net.pending_segments(), 1);
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
        assert!(net.close_channel(SimTime::ZERO, idle).is_empty());
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

    /// Whether the last water-fill pass gave channel `ch` a rate.
    fn refilled(net: &Network, ch: ChannelId) -> bool {
        net.scratch
            .frozen
            .iter()
            .any(|&(ci, _)| ci as usize == ch.0)
    }

    #[test]
    fn disjoint_flows_are_not_refilled() {
        let mut net = Network::new(SimDuration::from_micros(50));
        let n: Vec<_> = (0..4)
            .map(|_| net.add_symmetric_node(Bandwidth::gbps(1.0)))
            .collect();
        let a = net.open_channel(n[0], n[1]);
        let b = net.open_channel(n[2], n[3]);
        net.send(SimTime::ZERO, a, 250_000_000, 1);
        let before = (net.channel_rate(a).to_bits(), net.channels[a.0].head_done);
        // B starts, serializes alone, and goes idle while A keeps sending.
        net.send(SimTime::from_millis(100), b, 1_000_000, 2);
        assert!(refilled(&net, b) && !refilled(&net, a));
        let mut out = Vec::new();
        net.poll(SimTime::from_millis(200), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(net.channel_rate(b), 0.0);
        assert!(!refilled(&net, a));
        let after = (net.channel_rate(a).to_bits(), net.channels[a.0].head_done);
        assert_eq!(before, after);
    }

    #[test]
    fn shared_trunk_joins_components() {
        // Two racked hosts send to two different spine nodes: no NIC in
        // common, but both flows cross the rack's 1 Gbps uplink.
        let mut net = Network::new(SimDuration::from_micros(50));
        let h1 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let h2 = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let s1 = net.add_symmetric_node(Bandwidth::gbps(10.0));
        let s2 = net.add_symmetric_node(Bandwidth::gbps(10.0));
        let rack = net.add_rack(Bandwidth::gbps(1.0), Bandwidth::gbps(1.0));
        net.set_node_rack(h1, rack);
        net.set_node_rack(h2, rack);
        let c1 = net.open_channel(h1, s1);
        let c2 = net.open_channel(h2, s2);
        net.send(SimTime::ZERO, c1, 62_500_000, 1);
        assert!((net.channel_rate(c1) - GBPS).abs() < 1.0);
        net.send(SimTime::ZERO, c2, 125_000_000, 2);
        assert!(refilled(&net, c1) && refilled(&net, c2));
        assert_eq!(net.channel_rate(c1), net.channel_rate(c2));
        assert!((net.channel_rate(c1) - GBPS / 2.0).abs() < 1.0);
        // c1 finishes at 1 s; c2 alone gets the whole trunk.
        net.poll(SimTime::from_secs_f64(1.2), &mut Vec::new());
        assert!((net.channel_rate(c2) - GBPS).abs() < 1.0);
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

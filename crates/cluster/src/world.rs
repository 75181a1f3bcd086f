//! The simulated world: hosts, VMs, network, VMD, migrations, clients.
//!
//! `World` is the state type of the discrete-event [`agile_sim_core::Simulation`]; all
//! executor logic lives in sibling modules as free functions over
//! `&mut Simulation<World>`. Cross-references use plain indices — the
//! world is single-threaded and slab-structured (perf-book idiom: no
//! per-event allocation beyond closures).
//!
//! Ownership rule: the world is the one owner of every device, slot space
//! and protocol state machine, all held by value. Each host's SSD and the
//! slot allocator of its swap partition live in its [`Host`]; the VMD
//! directory, clients, servers and the per-namespace slot allocators live
//! in [`VmdSubsystem`]. A VM's [`SwapDev`] is a handle that names its
//! device (a host index, or a client id plus namespace), and through it
//! the device's slot space. Its methods take the hosts and the VMD
//! subsystem as `&mut`, which callers get by destructuring `World` into
//! disjoint field borrows. A memory image holds no allocator: its
//! slot-touching mutators borrow the one its device names, so every image
//! bound to one device (each VM on a host's partition, or both sides of
//! an Agile migration) draws from one space.

use std::collections::{HashMap, VecDeque};

use agile_memory::{HostMemory, SlotAllocator, SsdSwap, SwapIssue, VmMemory};
use agile_migration::{DestSession, SourceSession};
use agile_sim_core::{
    BlockDevice, ChannelId, DetRng, IdHashMap, IoCounters, Network, NodeId, SeedSequence,
    SimDuration, SimTime, ThroughputMeter, TimeSeries,
};
use agile_vm::Vm;
use agile_vmd::{NamespaceId, VmdClient, VmdDirectory, VmdServer, VmdSwapDevice};
use agile_workload::{OpSpec, OsBackground, SysbenchOltp, YcsbRedis};
use agile_wss::WssEstimator;

use crate::config::ClusterConfig;
use crate::slab::Slab;

/// A host in the cluster.
pub struct Host {
    /// Human-readable name ("source", "dest", "intermediate1", "client").
    pub name: String,
    /// This host's NIC in the fluid network.
    pub node: NodeId,
    /// Physical-memory ledger.
    pub mem: HostMemory,
    /// Local SSD used as the shared swap partition (baselines), if any.
    pub ssd: Option<BlockDevice>,
    /// Slot allocator of the shared swap partition: every VM swapping to
    /// this host's SSD draws from one slot space, so concurrent eviction
    /// streams interleave — which is what destroys sequential layout for
    /// the baselines' bulk swap-ins.
    pub swap_slots: Option<SlotAllocator>,
    /// Index of the VMD client module running on this host, if any.
    pub vmd_client: Option<usize>,
}

/// A VM's swap device binding.
pub enum SwapDev {
    /// Shared local SSD partition.
    Ssd(SsdSwap),
    /// Portable per-VM VMD namespace.
    Vmd(VmdSwapDevice),
}

impl SwapDev {
    /// Issue a read of `slot` (a swap-in) on the device this handle names.
    /// `req` is echoed through the VMD's asynchronous completion path.
    pub fn read(
        &mut self,
        hosts: &mut [Host],
        vmd: &mut VmdSubsystem,
        now: SimTime,
        slot: u32,
        req: u64,
    ) -> SwapIssue {
        match self {
            SwapDev::Ssd(s) => SwapIssue::CompleteAt(s.read(host_ssd(hosts, s.host()), now)),
            SwapDev::Vmd(v) => {
                let (client, dir) = vmd.client_and_dir(v.client_id().0 as usize);
                v.read(client, dir, now, slot, req)
            }
        }
    }

    /// Issue a write of `slot` holding content `version` (a swap-out) on
    /// the device this handle names.
    pub fn write(
        &mut self,
        hosts: &mut [Host],
        vmd: &mut VmdSubsystem,
        now: SimTime,
        slot: u32,
        version: u32,
        req: u64,
    ) -> SwapIssue {
        match self {
            SwapDev::Ssd(s) => SwapIssue::CompleteAt(s.write(host_ssd(hosts, s.host()), now)),
            SwapDev::Vmd(v) => {
                let (client, dir) = vmd.client_and_dir(v.client_id().0 as usize);
                v.write(client, dir, slot, version, req);
                SwapIssue::Pending
            }
        }
    }

    /// Per-VM iostat counters.
    pub fn counters(&self) -> IoCounters {
        match self {
            SwapDev::Ssd(s) => s.counters(),
            SwapDev::Vmd(v) => v.counters(),
        }
    }

    /// The slot space of the device this handle names: host `h`'s swap
    /// partition, or the VMD namespace's.
    pub fn slots<'a>(
        &self,
        hosts: &'a mut [Host],
        vmd: &'a mut VmdSubsystem,
    ) -> &'a mut SlotAllocator {
        match self {
            SwapDev::Ssd(s) => hosts[s.host()]
                .swap_slots
                .as_mut()
                .expect("host has no swap partition"),
            SwapDev::Vmd(v) => &mut vmd.slots[v.namespace().0 as usize],
        }
    }

    /// The VMD namespace, if network-backed.
    pub fn namespace(&self) -> Option<NamespaceId> {
        match self {
            SwapDev::Ssd(_) => None,
            SwapDev::Vmd(v) => Some(v.namespace()),
        }
    }

    /// True for the VMD-backed (readahead-free, per-VM) device.
    pub fn is_vmd(&self) -> bool {
        matches!(self, SwapDev::Vmd(_))
    }
}

/// The swap SSD of host `host`.
pub fn host_ssd(hosts: &mut [Host], host: usize) -> &mut BlockDevice {
    hosts[host].ssd.as_mut().expect("host has no swap SSD")
}

/// The application served by a VM.
pub enum WorkloadKind {
    /// YCSB over Redis.
    Ycsb(YcsbRedis),
    /// Sysbench OLTP over MySQL.
    Oltp(SysbenchOltp),
}

impl WorkloadKind {
    /// Server-side request concurrency.
    pub fn server_concurrency(&self) -> u32 {
        match self {
            WorkloadKind::Ycsb(y) => y.server_concurrency(),
            WorkloadKind::Oltp(o) => o.server_concurrency(),
        }
    }

    /// Closed-loop client threads.
    pub fn client_threads(&self) -> u32 {
        match self {
            WorkloadKind::Ycsb(y) => y.client_threads(),
            WorkloadKind::Oltp(o) => o.client_threads(),
        }
    }

    /// Generate the next request; returns the op and whether its
    /// completion counts as one application-level completion (YCSB op or
    /// OLTP transaction commit).
    pub fn next_op(&mut self, rng: &mut DetRng) -> (OpSpec, bool) {
        match self {
            WorkloadKind::Ycsb(y) => (y.next_op(rng), true),
            WorkloadKind::Oltp(o) => o.next_op(rng),
        }
    }
}

/// An external client bound to one VM.
pub struct ClientBinding {
    /// Host the client runs on.
    pub host: usize,
    /// Closed-loop threads.
    pub threads: u32,
    /// Channel client → VM's execution host.
    pub to_vm: ChannelId,
    /// Channel VM's execution host → client.
    pub from_vm: ChannelId,
    /// Key/op selection stream.
    pub rng: DetRng,
    /// Closed-loop think time between a response and the next request,
    /// in nanoseconds. 0 (the default) is the paper's think-free closed
    /// loop (the YCSB clients of Figs. 4–6): the next request is issued
    /// inline with no extra event.
    pub think_ns: u64,
}

/// A pending fault on one guest page, with parked operations.
pub struct FaultEntry {
    /// Ops waiting for the page.
    pub waiters: Vec<usize>,
    /// Whether I/O / a demand request has been issued.
    pub issued: bool,
}

/// One in-flight guest operation (request being served).
pub struct OpExec {
    /// Generation guard: bumped when the op is re-queued across a
    /// suspension so stale scheduled callbacks become no-ops.
    pub gen: u32,
    /// VM index.
    pub vm: usize,
    /// Page touches.
    pub touches: agile_workload::TouchList,
    /// Next touch index.
    pub idx: usize,
    /// CPU burst after the touches.
    pub cpu: SimDuration,
    /// Response size.
    pub response_bytes: u64,
    /// Completion ticks the VM's throughput meter.
    pub counts: bool,
    /// Whether a response must be sent to the client (guest-internal work
    /// like OS background has no client).
    pub respond: bool,
}

/// The WSS tracking machinery attached to a VM.
pub struct WssExec {
    /// The pluggable estimator driving reservation sizing (swap-I/O by
    /// default; simulated-PML when configured).
    pub estimator: Box<dyn WssEstimator>,
    /// The VM's [`VmSlot::mem_epoch`] the estimator last sampled under. A
    /// mismatch means the VM resumed elsewhere — the swap device binding
    /// (and its cumulative counters) was replaced under the estimator, so
    /// the sampling window must re-prime instead of computing a rate from
    /// counters of two different devices.
    pub epoch_seen: u32,
    /// When set, the VM's memory image has simulated-PML epoch tracking
    /// armed with this log capacity; the sampling tick drains it and —
    /// after a migration replaces the image — re-arms the fresh image.
    pub epoch_log_cap: Option<usize>,
}

/// Cumulative WSS-tracking counters (one set per world).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct WssCounters {
    /// Applied estimator ticks (reservation adjustments).
    pub samples: u64,
    /// Simulated-PML epoch drains.
    pub epoch_drains: u64,
    /// Drains whose bounded log overflowed into the full-scan fallback.
    pub pml_overflows: u64,
}

/// A VM slot: the VM plus everything the executor needs around it.
pub struct VmSlot {
    /// The VM.
    pub vm: Vm,
    /// Host index the VM currently executes on (mirrors `vm.state()`).
    pub host: usize,
    /// Swap device binding.
    pub swap: SwapDev,
    /// Application model.
    pub workload: Option<WorkloadKind>,
    /// Guest-OS background generator.
    pub os_bg: Option<OsBackground>,
    /// Queued requests awaiting a server worker.
    pub server_queue: VecDeque<usize>,
    /// Requests being processed right now.
    pub server_active: u32,
    /// Pending page faults with parked ops.
    pub pending_faults: IdHashMap<u32, FaultEntry>,
    /// Requests held while the VM is suspended (connection limbo).
    pub limbo: Vec<usize>,
    /// Client binding (external load generator).
    pub client: Option<ClientBinding>,
    /// Application completions per second.
    pub meter: ThroughputMeter,
    /// Reservation over time (Fig. 9).
    pub reservation_series: TimeSeries,
    /// Active migration (index into `World::migrations`).
    pub migration: Option<usize>,
    /// WSS tracking, if enabled for this VM.
    pub wss: Option<WssExec>,
    /// RNG stream for guest-OS background activity.
    pub os_rng: DetRng,
    /// Generation of the OS-background burst chain (bumped at suspension
    /// so superseded chains die).
    pub os_bg_gen: u32,
    /// Memory-image epoch: bumped when the destination image takes over,
    /// so in-flight source-side I/O completions apply to the right image.
    pub mem_epoch: u32,
}

/// One migration in progress (or finished).
pub struct MigrationExec {
    /// VM index.
    pub vm: usize,
    /// Source host index.
    pub source_host: usize,
    /// Destination host index.
    pub dest_host: usize,
    /// Source-side protocol session.
    pub src: SourceSession,
    /// Destination-side protocol session.
    pub dst: DestSession,
    /// Bulk stream channel (source → dest).
    pub stream_ch: ChannelId,
    /// Demand-response channel (source → dest).
    pub demand_ch: ChannelId,
    /// Demand-request channel (dest → source).
    pub req_ch: ChannelId,
    /// Chunks in flight on the bulk stream (flow control).
    pub in_flight: usize,
    /// Priority (demand-response) chunks in flight.
    pub demand_in_flight: usize,
    /// Source emitted `Done`.
    pub src_done: bool,
    /// Fully finished (metrics complete, source freed).
    pub finished: bool,
    /// The arriving VM's memory at the destination (until resume).
    pub dest_mem: Option<VmMemory>,
    /// The departing VM's memory at the source (after resume).
    pub source_mem: Option<VmMemory>,
    /// Swap device the VM will use at the destination (installed at
    /// resume). For Agile this is the same portable namespace bound
    /// through the destination's VMD client.
    pub dest_swap: Option<SwapDev>,
    /// The swap device the VM used at the source, retained after resume
    /// so late source-side evictions/swap-ins still have a device.
    pub source_swap: Option<SwapDev>,
    /// Outstanding Migration-Manager swap-in batches: batch → pages left.
    pub swapin_remaining: IdHashMap<u64, u32>,
    /// When set, finalization verifies that the destination holds (at
    /// least) the source's final content version of every page — the
    /// end-to-end dirty-tracking check used by the integration tests.
    pub verify_content: bool,
    /// Attempt counter: bumped on every abort so scheduled retry
    /// callbacks from a superseded attempt become no-ops.
    pub attempt: u32,
    /// Completed abort-and-retry cycles.
    pub retries: u32,
    /// Destination cgroup reservation, retained so a retry can rebuild
    /// the destination image.
    pub dest_reservation: u64,
    /// The migration connections dropped after the destination resumed:
    /// remaining source state is unreachable and faults fall back to the
    /// per-VM swap device (the replicated VMD namespace).
    pub conn_down: bool,
    /// Pages that could be recovered from neither the source (connection
    /// down) nor the swap device; they were zero-filled and counted.
    pub pages_lost_on_conn_drop: u64,
}

/// What a network delivery means.
pub enum NetPayload {
    /// A client request arriving at the VM's execution host.
    Request {
        /// VM index.
        vm: usize,
        /// The operation.
        op: OpSpec,
        /// Completion counts toward the meter.
        counts: bool,
    },
    /// A response arriving back at the client.
    Response {
        /// VM index.
        vm: usize,
        /// Completion counts toward the meter.
        counts: bool,
    },
    /// A migration chunk arriving at the destination.
    MigChunk {
        /// Migration index.
        mig: usize,
        /// The chunk itself.
        chunk: agile_migration::Chunk,
        /// Arrived on the demand (priority) channel.
        priority: bool,
    },
    /// The CPU-state + dirty-bitmap handoff arriving at the destination.
    MigHandoff {
        /// Migration index.
        mig: usize,
    },
    /// A demand-page request arriving at the source.
    DemandReq {
        /// Migration index.
        mig: usize,
        /// Faulted page.
        pfn: u32,
    },
    /// A VMD protocol message arriving at a server.
    VmdToServer {
        /// Server index.
        server: usize,
        /// Sending client index.
        client: usize,
        /// The message.
        msg: agile_vmd::ClientMsg,
    },
    /// A VMD protocol message arriving back at a client.
    VmdToClient {
        /// Client index.
        client: usize,
        /// Replying server index.
        server: usize,
        /// The message.
        msg: agile_vmd::ServerMsg,
    },
}

// Every in-flight message holds one registry slot of this size; keep it
// from growing unnoticed.
const _: () = assert!(std::mem::size_of::<NetPayload>() <= 112);

/// Context of an outstanding swap I/O.
pub enum SwapReqCtx {
    /// A guest major fault; completion installs the page and wakes
    /// waiters.
    GuestFault {
        /// VM index.
        vm: usize,
        /// Faulted page.
        pfn: u32,
        /// Memory-image epoch the I/O was issued against.
        epoch: u32,
        /// Count the completion as a destination fault-from-swap (Agile).
        dest_stat: bool,
        /// When the fault was issued (guest-visible latency histogram).
        issued: agile_sim_core::SimTime,
    },
    /// One page of a Migration-Manager swap-in batch.
    MigrationSwapIn {
        /// Migration index.
        mig: usize,
        /// Batch id for [`agile_migration::SourceEvent::SwapInDone`].
        batch: u64,
        /// Page being read.
        pfn: u32,
    },
    /// An eviction write-back; nothing to do on completion.
    EvictionWrite,
    /// One page of a clone's background hydration stream (the clone
    /// controller's paced pump reading the forked gold image).
    CloneHydrate {
        /// VM index of the clone.
        vm: usize,
        /// Page being hydrated.
        pfn: u32,
    },
}

/// A VMD endpoint (client or server) placement.
pub struct VmdClientEntry {
    /// The protocol state machine.
    pub client: VmdClient,
    /// Host it runs on.
    pub host: usize,
}

/// A VMD server placement.
pub struct VmdServerEntry {
    /// The protocol state machine.
    pub server: VmdServer,
    /// Host it runs on.
    pub host: usize,
    /// False while the server is crashed: messages to and from it are
    /// dropped by the transport and availability gossip skips it.
    pub alive: bool,
}

/// The VMD subsystem.
pub struct VmdSubsystem {
    /// Namespace directory (portable-device metadata).
    pub directory: VmdDirectory,
    /// Slot space of each namespace, indexed by `NamespaceId.0`: the
    /// portable device's metadata, so the source and destination images
    /// of a migrating VM draw from one allocator.
    pub slots: Vec<SlotAllocator>,
    /// Clients, one per participating host.
    pub clients: Vec<VmdClientEntry>,
    /// Servers, one per intermediate host.
    pub servers: Vec<VmdServerEntry>,
    /// `(to-server, to-client)` channels of every (client, server) pair,
    /// row-major by client: see [`VmdSubsystem::channels_between`].
    pub channels: Vec<(ChannelId, ChannelId)>,
}

impl VmdSubsystem {
    /// An empty subsystem.
    pub fn new() -> Self {
        VmdSubsystem {
            directory: VmdDirectory::new(),
            slots: Vec::new(),
            clients: Vec::new(),
            servers: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Client `client` and the directory, both mutably: the pair most
    /// client operations take.
    pub fn client_and_dir(&mut self, client: usize) -> (&mut VmdClient, &mut VmdDirectory) {
        (&mut self.clients[client].client, &mut self.directory)
    }

    /// Give namespace `ns` a fresh, empty slot space (growing the table to
    /// reach it), for a namespace just created or just purged.
    pub fn reset_slots(&mut self, ns: NamespaceId) {
        let i = ns.0 as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, SlotAllocator::unbounded);
        }
        self.slots[i] = SlotAllocator::unbounded();
    }

    /// `(to-server, to-client)` channels between `client` and `server`.
    /// Every pair is wired when the world is built.
    pub fn channels_between(&self, client: usize, server: usize) -> (ChannelId, ChannelId) {
        self.channels[client * self.servers.len() + server]
    }
}

impl Default for VmdSubsystem {
    fn default() -> Self {
        Self::new()
    }
}

/// The whole simulated cluster.
pub struct World {
    /// Static configuration.
    pub cfg: ClusterConfig,
    /// Per-component RNG seed derivation.
    pub seeds: SeedSequence,
    /// The fluid-flow network.
    pub net: Network,
    /// Per-world network-poll driver state (armed event + counters).
    pub netdrv: crate::netdrv::NetDriver,
    /// Which shard of a sharded run this world is (0 when standalone).
    pub shard_id: usize,
    /// Cross-shard boundary state: outgoing messages drained at epoch
    /// barriers, incoming global signals. Empty (and free) when the world
    /// runs standalone.
    pub boundary: crate::shard::BoundaryState,
    /// Hosts.
    pub hosts: Vec<Host>,
    /// VM slots.
    pub vms: Vec<VmSlot>,
    /// VMD subsystem.
    pub vmd: VmdSubsystem,
    /// Migrations (active and completed).
    pub migrations: Vec<MigrationExec>,
    /// Payloads of the segments in the network; a delivery's tag is its
    /// payload's slot.
    pub payloads: Slab<NetPayload>,
    /// Outstanding swap I/Os.
    pub swap_reqs: IdHashMap<u64, SwapReqCtx>,
    /// Next swap request id.
    pub next_req: u64,
    /// In-flight ops; an op id is its slot.
    pub ops: Slab<OpExec>,
    /// Monotonic op-generation counter (uniqueness across slot reuse).
    pub next_op_gen: u32,
    /// Migration swap-in batches piggybacking on in-flight guest faults:
    /// `(vm, pfn)` → batches to credit when the page read completes.
    pub swapin_piggyback: IdHashMap<(usize, u32), Vec<(usize, u64)>>,
    /// Scratch eviction buffer (reused; perf-book: no per-fault allocs).
    pub evict_buf: Vec<agile_memory::Eviction>,
    /// Fault-injection executor state (empty in non-chaos runs: the
    /// wiring adds zero events when no schedule is installed).
    pub chaos: crate::chaosctl::ChaosExec,
    /// Cluster-scale watermark scheduler, if armed
    /// ([`crate::sched::arm_scheduler`]). `None` costs nothing.
    pub sched: Option<crate::sched::SchedExec>,
    /// Elastic pool manager, if armed ([`crate::poolctl::arm_pool`]).
    /// `None` costs nothing and changes nothing (legacy fixed leases).
    pub pool: Option<crate::poolctl::PoolExec>,
    /// Temporal workload driver, if armed ([`crate::wlctl::arm_driver`]).
    /// `None` costs nothing; a driver whose signals are all constant
    /// installs zero events.
    pub wldrv: Option<crate::wlctl::WlExec>,
    /// Elastic clone controller, if armed
    /// ([`crate::clonectl::arm_cloning`]). `None` costs nothing: no fork
    /// is ever issued and legacy traces replay byte-identically.
    pub clone: Option<crate::clonectl::CloneExec>,
    /// Busy-until horizon per `(server, tier)` for `Fixed`-backed tier
    /// reads, used only when
    /// [`ClusterConfig::vmd_fixed_tier_queueing`](crate::config::ClusterConfig::vmd_fixed_tier_queueing)
    /// is set. Empty (and never touched) under the legacy unqueued model.
    pub fixed_tier_busy: HashMap<(usize, u8), agile_sim_core::SimTime>,
    /// Simulated-time trace sink. Disabled by default: `record` is an
    /// inlined early-return and the sink owns no buffer, so untraced
    /// runs pay nothing on the event hot paths.
    pub trace: agile_trace::Tracer,
    /// WSS-tracking counters (metrics rows appear only when the PML
    /// machinery actually ran, keeping legacy metrics JSON unchanged).
    pub wss_counters: WssCounters,
    /// Guest-visible major-fault latency histogram. `None` (the default)
    /// records nothing and costs nothing; scenarios that report fault
    /// latency (`scenario::tiers`) install one.
    pub fault_hist: Option<Box<agile_sim_core::FixedHistogram>>,
}

impl World {
    /// Create an empty world.
    pub fn new(cfg: ClusterConfig) -> Self {
        World {
            cfg,
            seeds: SeedSequence::new(cfg.seed),
            net: Network::new(cfg.prop_delay),
            netdrv: crate::netdrv::NetDriver::default(),
            shard_id: 0,
            boundary: crate::shard::BoundaryState::default(),
            hosts: Vec::new(),
            vms: Vec::new(),
            vmd: VmdSubsystem::new(),
            migrations: Vec::new(),
            payloads: Slab::new(),
            swap_reqs: IdHashMap::default(),
            next_req: 0,
            ops: Slab::new(),
            next_op_gen: 0,
            swapin_piggyback: IdHashMap::default(),
            evict_buf: Vec::new(),
            chaos: crate::chaosctl::ChaosExec::default(),
            sched: None,
            pool: None,
            wldrv: None,
            clone: None,
            fixed_tier_busy: HashMap::new(),
            trace: agile_trace::Tracer::disabled(),
            wss_counters: WssCounters::default(),
            fault_hist: None,
        }
    }

    /// Register a payload for one network send; the returned tag is valid
    /// until the delivery (or the channel's close) frees it.
    pub fn tag(&mut self, payload: NetPayload) -> u64 {
        u64::from(self.payloads.insert(payload))
    }

    /// Allocate an op slab slot. The op's generation is overwritten with a
    /// globally-unique value so stale scheduled callbacks (which capture
    /// `(id, gen)`) can never act on a recycled slot.
    pub fn alloc_op(&mut self, mut op: OpExec) -> usize {
        op.gen = self.next_op_gen;
        self.next_op_gen += 1;
        self.ops.insert(op) as usize
    }

    /// The live op `id`, if any.
    pub fn op(&self, id: usize) -> Option<&OpExec> {
        self.ops.get(id as u32)
    }

    /// The live op `id`, mutably, if any.
    pub fn op_mut(&mut self, id: usize) -> Option<&mut OpExec> {
        self.ops.get_mut(id as u32)
    }

    /// Bump an op's generation (invalidating scheduled callbacks) and
    /// return the new value.
    pub fn bump_op_gen(&mut self, id: usize) -> u32 {
        let gen = self.next_op_gen;
        self.next_op_gen += 1;
        self.ops[id as u32].gen = gen;
        gen
    }

    /// Free an op slab slot.
    pub fn free_op(&mut self, id: usize) {
        let freed = self.ops.take(id as u32);
        debug_assert!(freed.is_some(), "double free of op {id}");
    }
}

//! Application agents and their interface to the simulated world.
//!
//! Everything above the network — media sources, receivers, the TopoSense
//! controller, baseline controllers — is an [`App`] attached to a node. Apps
//! are event-driven: the simulator calls them when a packet is delivered or
//! a timer fires, and they act on the world exclusively through [`Ctx`]
//! (send packets, join/leave groups, set timers). This mirrors the paper's
//! architecture: agents are *application-level entities; routers in the
//! domain are unaware of their existence*.

use crate::event::{Event, EventQueue};
use crate::multicast::{GroupId, TreeOp};
use crate::node::NodeId;
use crate::packet::{ControlBody, Packet, PacketSlab, SessionId};
use crate::sim::Network;
use crate::time::{SimDuration, SimTime};

/// Index of an application agent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AppId(pub u32);

impl AppId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An application agent.
///
/// Handlers receive a [`Ctx`] scoped to this app and the current instant.
/// All methods have empty defaults so simple apps implement only what they
/// need.
///
/// `Send` is a supertrait so a whole [`crate::sim::Simulator`] (which owns
/// its apps) can move to a worker thread — the sharded runner executes one
/// simulator per shard under `std::thread::scope`. Apps still run
/// single-threaded within their shard; share observations across threads
/// with `Arc<AtomicU64>`/`Arc<Mutex<..>>` instead of `Rc<Cell<..>>`.
pub trait App: Send {
    /// Called once when the simulation starts (in app-id order).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A packet addressed to this node / a subscribed group arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &Packet) {
        let _ = (ctx, packet);
    }

    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// The node hosting this app restarted after a crash. Every timer set
    /// before the crash is gone — the simulator drops it when it comes due,
    /// during the outage or after it, so a timer armed here is the only
    /// chain running — and the router's multicast state (including this
    /// app's subscriptions) was lost: apps that want to keep running must
    /// re-arm timers and re-join groups here.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

/// The world as visible to one app during one event.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) app: AppId,
    pub(crate) node: NodeId,
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) net: &'a mut Network,
    pub(crate) slab: &'a mut PacketSlab,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This app's id.
    pub fn app_id(&self) -> AppId {
        self.app
    }

    /// The node this app runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Arrange for [`App::on_timer`] to be called with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.queue.schedule(self.now + delay, Event::Timer { app: self.app, token });
    }

    /// Multicast a media packet of `layer` in `session` to `group`.
    pub fn send_media(
        &mut self,
        group: GroupId,
        session: SessionId,
        layer: u8,
        seq: u64,
        size: u32,
    ) {
        let pkt = Packet::media(self.node, group, session, layer, seq, size);
        self.originate(pkt);
    }

    /// Unicast an opaque control message to `dest`.
    pub fn send_control(&mut self, dest: NodeId, size: u32, body: ControlBody) {
        let pkt = Packet::control(self.node, dest, size, body);
        self.originate(pkt);
    }

    fn originate(&mut self, packet: Packet) {
        // Injection is modelled as an arrival at the originating node with no
        // incoming link; the ordinary forwarding path takes it from there.
        // The packet moves into the slab here — events only carry its id.
        let id = self.slab.insert(packet);
        self.queue.schedule(self.now, Event::Inject { node: self.node, packet: id });
    }

    /// Re-originate `packet` from `node` after `delay`, rewriting its
    /// source/destination. This is the single-process stand-in for a
    /// cross-shard handoff: the sharded runner carries the packet through a
    /// mailbox and injects it at the destination shard `delay` later, while
    /// the sequential oracle calls `relay` to schedule the identical
    /// injection inside one event queue.
    pub fn relay(&mut self, node: NodeId, delay: SimDuration, packet: &Packet) {
        let id = self.slab.insert(packet.forwarded_to(self.node, node));
        self.queue.schedule(self.now + delay, Event::Inject { node, packet: id });
    }

    /// Subscribe this app to `group` (grafting the distribution tree).
    pub fn join(&mut self, group: GroupId) {
        let ops = self.net.join_group(group, self.node, self.app);
        self.schedule_tree_ops(ops);
    }

    /// Unsubscribe this app from `group` (pruning after the leave latency).
    pub fn leave(&mut self, group: GroupId) {
        let ops = self.net.leave_group(group, self.node, self.app);
        self.schedule_tree_ops(ops);
    }

    fn schedule_tree_ops(&mut self, ops: Vec<TreeOp>) {
        for op in ops {
            match op {
                TreeOp::Graft { group, link, after } => {
                    self.queue.schedule(self.now + after, Event::GraftDone { group, link });
                }
                TreeOp::Prune { group, link, after } => {
                    self.queue.schedule(self.now + after, Event::PruneDone { group, link });
                }
            }
        }
    }

    /// Whether this app is currently subscribed to `group`.
    pub fn is_subscribed(&self, group: GroupId) -> bool {
        self.net.mcast.is_subscribed(group, self.node, self.app)
    }

    /// Read-only access to the network (topology oracles, ground truth).
    pub fn network(&self) -> &Network {
        self.net
    }
}

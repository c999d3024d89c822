//! # baselines — comparison points for TopoSense
//!
//! * [`oracle`] — the **static optimal** subscription per receiver, computed
//!   from ground-truth capacities by discrete max-min filling. This is the
//!   `y_i` in the paper's relative-deviation metric.
//! * [`rlm`] — a **receiver-driven** layered-multicast controller in the
//!   spirit of McCanne et al.: independent join experiments with exponential
//!   backoff and no topology knowledge. This is the "congestion control
//!   mechanism which is unaware of the topological relationship" that the
//!   paper's Fig. 1 example argues against.
//! * [`fixed`] — a subscribe-k-layers strawman (no adaptation at all).

#![forbid(unsafe_code)]

pub mod fixed;
pub mod oracle;
pub mod rlm;

pub use fixed::FixedReceiver;
pub use rlm::RlmReceiver;

/// The world the receiver baselines' unit tests share: `src` feeding `rcv`
/// over one `kbps` link, a CBR source on `src`, and the receiver `make`
/// builds on `rcv`, run for `secs` seconds.
#[cfg(test)]
pub(crate) fn run_two_node<A: netsim::App + 'static>(
    kbps: f64,
    secs: u64,
    make: impl FnOnce(traffic::session::SessionDef) -> (A, toposense::receiver::ReceiverHandle),
) -> toposense::receiver::ReceiverHandle {
    use netsim::sim::{NetworkBuilder, SimConfig};
    use netsim::{GroupId, LinkConfig, SessionId, SimTime};
    use traffic::{LayerSpec, LayeredSource, TrafficModel};

    let mut b = NetworkBuilder::new(SimConfig::default());
    let src = b.add_node("src");
    let rcv = b.add_node("rcv");
    b.add_link(src, rcv, LinkConfig::kbps(kbps));
    let mut sim = b.build();
    let groups: Vec<GroupId> = (0..6).map(|_| sim.create_group(src)).collect();
    let def = traffic::session::SessionDef {
        id: SessionId(0),
        source: src,
        groups,
        spec: LayerSpec::paper_default(),
    };
    sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
    let (receiver, shared) = make(def);
    sim.add_app(rcv, Box::new(receiver));
    sim.run_until(SimTime::from_secs(secs));
    shared
}

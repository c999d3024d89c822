//! Stage 4 — sharing bandwidth between competing sessions.
//!
//! Min-max fair allocations may not exist for discrete layers (Sarkar &
//! Tassiulas), so the paper uses an intuitive proportional rule. At each
//! shared link with estimated capacity `B`:
//!
//! 1. compute, per session, the **maximum possible demand** `x_i` (in
//!    layers) the session could use through this link if every other
//!    session took only its base layer — a top-down pass followed by a
//!    bottom-up max over children;
//! 2. allocate `share_i = x_i · B / Σ_j x_j`.
//!
//! A session bottlenecked further downstream therefore asks for little and
//! cedes the rest: with downstream bottlenecks of 250 kb/s and 1 Mb/s the
//! paper expects exactly those allocations, not an equal split.
#![deny(clippy::too_many_lines)]

use netsim::DirLinkId;
use std::collections::HashMap;
use topology::SessionTree;
use traffic::LayerSpec;

/// Reusable cross-session scratch for [`compute_into`], held by the
/// algorithm driver so one allocation serves every interval.
///
/// `crossing`'s per-link vectors are cleared (not dropped) between
/// intervals; entries left empty by a topology change are skipped, so the
/// map only ever grows to the set of links seen so far.
#[derive(Debug, Default)]
pub struct SharingScratch {
    /// Which sessions cross each link, and the slot where that link enters
    /// each session's tree.
    crossing: HashMap<DirLinkId, Vec<(u32, u32)>>,
    /// Proportional share per `(link, session index)` on shared links.
    share: HashMap<(DirLinkId, u32), f64>,
    /// Pass A/B/final results per session, indexed by tree slot.
    maxposs: Vec<Vec<f64>>,
    aggdem: Vec<Vec<f64>>,
    allowed: Vec<Vec<f64>>,
    /// A step's work buffers: stale sessions, affected links.
    stale: Vec<bool>,
    affected: Vec<DirLinkId>,
}

impl SharingScratch {
    /// The bandwidth session `idx` may use at tree `slot` (∞ if
    /// unconstrained). Valid until the next [`compute_into`] call.
    pub fn allowed_at(&self, idx: usize, slot: usize) -> f64 {
        self.allowed[idx][slot]
    }

    /// Session `idx`'s allowances, slot-indexed.
    pub(crate) fn allowed(&self, idx: usize) -> &[f64] {
        &self.allowed[idx]
    }

    /// The proportional shares computed at shared links, as
    /// `(link, session index, share_bps)` rows sorted by link then
    /// session — a deterministic audit view of the `share` map. Valid
    /// until the next [`compute_into`] call.
    pub fn shares_sorted(&self) -> Vec<(DirLinkId, u32, f64)> {
        let mut rows: Vec<(DirLinkId, u32, f64)> =
            self.share.iter().map(|(&(link, i), &bps)| (link, i, bps)).collect();
        rows.sort_by_key(|&(link, i, _)| (link, i));
        rows
    }
}

/// Proportional share of capacity `b` for a session demanding `x` of
/// `total` layers across `n` sessions crossing the link.
///
/// Guards the paper's `x_i · B / Σ_j x_j`: if every crossing session's
/// demand rounded to zero layers the division would be `0/0 = NaN` (or
/// `x/0 = ∞`) and poison every downstream min it feeds, so a zero total
/// degrades to the equal split `B / n` instead.
pub(crate) fn proportional_share(x: u32, total: u32, b: f64, n: usize) -> f64 {
    if total == 0 {
        b / n as f64
    } else {
        x as f64 * b / total as f64
    }
}

/// Stage 4 over every session: fills `scratch` so that
/// [`SharingScratch::allowed_at`] answers the bandwidth session `i` may use
/// at each of its tree slots. `trees[i]` and `specs[i]` describe session
/// `i`; `capacity` is the stage-2 estimate (`None` = infinite). This is
/// `prime` and the algorithm driver's step, `update`, with every
/// session new.
pub fn compute_into(
    trees: &[SessionTree],
    specs: &[&LayerSpec],
    capacity: impl Fn(DirLinkId) -> Option<f64>,
    scratch: &mut SharingScratch,
) {
    assert_eq!(trees.len(), specs.len());
    prime(trees, scratch);
    let all: Vec<u32> = (0..trees.len() as u32).collect();
    update(trees, specs, capacity, scratch, &[], &all, &mut Vec::new());
}

/// Rebuild the link-crossing table for `trees` and forget every share:
/// what a cold start does before its first [`update`].
pub(crate) fn prime(trees: &[SessionTree], scratch: &mut SharingScratch) {
    // Which sessions cross each link, and where that link enters their tree.
    let crossing = &mut scratch.crossing;
    for v in crossing.values_mut() {
        v.clear();
    }
    for (i, tree) in trees.iter().enumerate() {
        for s in 1..tree.tree().len() {
            crossing.entry(tree.in_link_at(s)).or_default().push((i as u32, s as u32));
        }
    }
    scratch.share.clear();
    for bufs in [&mut scratch.maxposs, &mut scratch.aggdem, &mut scratch.allowed] {
        bufs.resize_with(trees.len().max(bufs.len()), Vec::new);
    }
}

/// Stage 4's step: refresh `scratch` for the sessions in `fresh`
/// (ascending: sessions whose tree is new since the last step, every one
/// after a [`prime`]) and after a capacity change on exactly the links in
/// `cap_changed` (sorted, deduplicated) — a no-op, the steady-state hot
/// path, when both are empty. `refreshed` receives the refreshed sessions,
/// ascending, so downstream stages know whose per-slot allowances (and
/// hence level caps) may have moved. Effect propagation, session-granular:
///
/// * stale sessions — the fresh ones and those crossing a changed link —
///   get fresh `maxposs`/`aggdem`;
/// * every link those sessions cross — plus the changed links themselves —
///   may see its proportional share move (shares read the crossing
///   sessions' `aggdem` heads), so those links' shares are recomputed;
/// * sessions crossing any such link get a fresh final `allowed` pass, and
///   are the refreshed ones.
///
/// Links and sessions outside that closure provably keep their previous
/// values: an untouched link has unchanged capacity and (by construction)
/// no crossing session with changed `aggdem`, so its share — and every
/// `allowed` path through it — is byte-identical to a full recompute. The
/// caller guarantees estimates never *disappear* between steps without a
/// [`prime`] (a periodic reset forces a cold start), which is what keeps
/// stale `share` entries for untouched links valid.
pub(crate) fn update(
    trees: &[SessionTree],
    specs: &[&LayerSpec],
    capacity: impl Fn(DirLinkId) -> Option<f64>,
    scratch: &mut SharingScratch,
    cap_changed: &[DirLinkId],
    fresh: &[u32],
    refreshed: &mut Vec<u32>,
) {
    refreshed.clear();
    if cap_changed.is_empty() && fresh.is_empty() {
        return;
    }
    debug_assert_eq!(trees.len(), specs.len());
    debug_assert!(scratch.allowed.len() >= trees.len(), "scratch not primed");
    let SharingScratch { crossing, share, maxposs, aggdem, allowed, stale, affected } = scratch;
    stale.clear();
    stale.resize(trees.len(), false);
    for &i in fresh {
        stale[i as usize] = true;
    }
    for link in cap_changed {
        for &(i, _) in crossing.get(link).into_iter().flatten() {
            stale[i as usize] = true;
        }
    }
    let reset = |buf: &mut Vec<f64>, len: usize| {
        buf.clear();
        buf.resize(len, f64::INFINITY);
    };

    for (i, tree) in trees.iter().enumerate() {
        if !stale[i] {
            continue;
        }
        let t = tree.tree();
        // Pass A (top-down): max bandwidth possible per node if all *other*
        // sessions on each link took only their base layer.
        let m = &mut maxposs[i];
        reset(m, t.len());
        for s in t.slots() {
            let Some(p) = t.parent_slot_of(s) else { continue };
            let link = tree.in_link_at(s);
            let avail = match capacity(link) {
                None => f64::INFINITY,
                Some(b) => {
                    let others_base: f64 = crossing[&link]
                        .iter()
                        .filter(|&&(j, _)| j as usize != i)
                        .map(|&(j, _)| specs[j as usize].base_rate())
                        .sum();
                    // Every session is assumed to get at least its own
                    // base layer's worth.
                    (b - others_base).max(specs[i].base_rate())
                }
            };
            m[s] = m[p].min(avail);
        }
        // Pass B (bottom-up): a node's max possible demand is the max over
        // its children; leaves keep their own.
        let (maxposs, m) = (&maxposs[i], &mut aggdem[i]);
        reset(m, t.len());
        for s in t.slots_bottom_up() {
            let cs = t.child_slots(s);
            m[s] = if cs.is_empty() {
                maxposs[s]
            } else {
                cs.map(|c| m[c]).fold(f64::NEG_INFINITY, f64::max)
            };
        }
    }

    // Links whose share inputs may have moved: the changed links, plus
    // everything a stale session crosses.
    affected.clear();
    affected.extend_from_slice(cap_changed);
    for (i, tree) in trees.iter().enumerate() {
        if stale[i] {
            affected.extend((1..tree.tree().len()).map(|s| tree.in_link_at(s)));
        }
    }
    affected.sort_unstable();
    affected.dedup();

    // Per affected shared link: x_i in layers, then the proportional
    // share. Sessions crossing an affected link need a fresh final pass
    // (their path mins read the recomputed entries).
    for &link in affected.iter() {
        let Some(sessions) = crossing.get(&link) else { continue };
        for &(i, _) in sessions {
            stale[i as usize] = true;
        }
        if sessions.len() < 2 {
            continue;
        }
        let Some(b) = capacity(link) else { continue };
        let x = |&(i, head): &(u32, u32)| {
            specs[i as usize].level_fitting(aggdem[i as usize][head as usize]).max(1) as u32
        };
        let total: u32 = sessions.iter().map(x).sum();
        for entry in sessions {
            share.insert((link, entry.0), proportional_share(x(entry), total, b, sessions.len()));
        }
    }

    // Final top-down pass: allowed bandwidth per node = min over the path of
    // (fair share on shared links, raw estimate on private links).
    for (i, tree) in trees.iter().enumerate() {
        if !stale[i] {
            continue;
        }
        refreshed.push(i as u32);
        let t = tree.tree();
        let m = &mut allowed[i];
        reset(m, t.len());
        for s in t.slots() {
            let Some(p) = t.parent_slot_of(s) else { continue };
            let link = tree.in_link_at(s);
            let limit = share
                .get(&(link, i as u32))
                .copied()
                .or_else(|| capacity(link))
                .unwrap_or(f64::INFINITY);
            m[s] = m[p].min(limit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{GroupId, GroupSnapshot, NodeId, SessionId, SimTime};
    use topology::discovery::{LinkView, TopologyView};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn l(i: u32) -> DirLinkId {
        DirLinkId(i)
    }

    /// Two sessions sharing link 0 (agg(0) -> dist(1)), then private links
    /// 1 and 2 to receivers 2 and 3. Sources both at node 0.
    fn two_sessions() -> (Vec<SessionTree>, LayerSpec) {
        let links = vec![
            LinkView { id: l(0), from: n(0), to: n(1) },
            LinkView { id: l(1), from: n(1), to: n(2) },
            LinkView { id: l(2), from: n(1), to: n(3) },
        ];
        let mk = |gid: u32, leaf_link: DirLinkId, leaf: NodeId| TopologyView {
            time: SimTime::ZERO,
            links: links.clone(),
            groups: vec![GroupSnapshot {
                group: GroupId(gid),
                root: n(0),
                active_links: vec![l(0), leaf_link],
                member_nodes: vec![leaf],
            }],
        };
        let t0 = SessionTree::build(&mk(0, l(1), n(2)), SessionId(0), &[GroupId(0)]).unwrap();
        let t1 = SessionTree::build(&mk(1, l(2), n(3)), SessionId(1), &[GroupId(1)]).unwrap();
        (vec![t0, t1], LayerSpec::paper_default())
    }

    /// Stage 4 over `trees`; the result maps `(session index, node)` to
    /// the allowed bandwidth.
    fn compute<'a>(
        trees: &'a [SessionTree],
        specs: &[&LayerSpec],
        capacity: impl Fn(DirLinkId) -> Option<f64>,
    ) -> impl Fn(usize, NodeId) -> f64 + 'a {
        let mut scratch = SharingScratch::default();
        compute_into(trees, specs, capacity, &mut scratch);
        move |i, node| scratch.allowed_at(i, trees[i].tree().slot_of(node).unwrap())
    }

    #[test]
    fn no_estimates_means_no_constraint() {
        let (trees, spec) = two_sessions();
        let m = compute(&trees, &[&spec, &spec], |_| None);
        assert_eq!(m(0, n(2)), f64::INFINITY);
        assert_eq!(m(1, n(3)), f64::INFINITY);
    }

    #[test]
    fn equal_sessions_split_evenly() {
        let (trees, spec) = two_sessions();
        // Shared link estimated at 1 Mb/s, downstream unconstrained.
        let m = compute(&trees, &[&spec, &spec], |id| (id == l(0)).then_some(1_000_000.0));
        let a0 = m(0, n(2));
        let a1 = m(1, n(3));
        assert!((a0 - 500_000.0).abs() < 1.0, "got {a0}");
        assert!((a1 - 500_000.0).abs() < 1.0, "got {a1}");
        // Conservation: shares sum to B.
        assert!((a0 + a1 - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn downstream_bottleneck_cedes_bandwidth() {
        let (trees, spec) = two_sessions();
        // Session 0's private link is tiny (fits only the base layer);
        // session 1 unconstrained downstream. B = 1 Mb/s on the shared link.
        let m = compute(&trees, &[&spec, &spec], |id| match id.0 {
            0 => Some(1_000_000.0),
            1 => Some(40_000.0),
            _ => None,
        });
        // x_0 = 1 layer, x_1 = level_fitting(1M - 32k) = 4 layers.
        // share_0 = 1/5 MB, share_1 = 4/5 MB.
        let a0 = m(0, n(2));
        let a1 = m(1, n(3));
        assert!((a1 - 800_000.0).abs() < 1.0, "got {a1}");
        // Session 0 is further capped by its own 40 kb/s private link.
        assert!((a0 - 40_000.0).abs() < 1.0, "got {a0}");
        assert!(a1 > a0 * 10.0);
    }

    #[test]
    fn single_session_links_use_raw_estimate() {
        let (trees, spec) = two_sessions();
        let m = compute(&trees, &[&spec, &spec], |id| (id == l(1)).then_some(123_000.0));
        // Link 1 carries only session 0: no sharing, raw estimate applies.
        assert!((m(0, n(2)) - 123_000.0).abs() < 1.0);
        assert_eq!(m(1, n(3)), f64::INFINITY);
    }

    #[test]
    fn every_session_keeps_at_least_base_worth_of_x() {
        let (trees, spec) = two_sessions();
        // Shared link barely fits one base layer; both sessions still get
        // x >= 1, so neither share is zero.
        let m = compute(&trees, &[&spec, &spec], |id| (id == l(0)).then_some(40_000.0));
        assert!(m(0, n(2)) > 0.0);
        assert!(m(1, n(3)) > 0.0);
        let sum = m(0, n(2)) + m(1, n(3));
        assert!((sum - 40_000.0).abs() < 1.0);
    }

    #[test]
    fn zero_total_demand_falls_back_to_equal_split() {
        // If every crossing session's demand rounds to zero layers,
        // `x·B/Σx` is 0/0 = NaN and would poison every downstream min.
        // The guard returns the equal split instead.
        let s = proportional_share(0, 0, 1_000_000.0, 4);
        assert!(s.is_finite(), "got {s}");
        assert_eq!(s, 250_000.0);
        // Non-zero x with a zero total (inconsistent inputs) must not
        // produce infinity either.
        assert!(proportional_share(3, 0, 1_000_000.0, 2).is_finite());
        // The normal path is untouched.
        assert_eq!(proportional_share(1, 5, 1_000_000.0, 2), 200_000.0);
        assert_eq!(proportional_share(4, 5, 1_000_000.0, 2), 800_000.0);
    }

    #[test]
    fn sixteen_equal_sessions_each_get_a_sixteenth() {
        // Mirror of the paper's Topology B at n=16.
        let links: Vec<LinkView> = std::iter::once(LinkView { id: l(0), from: n(0), to: n(1) })
            .chain((0..16).map(|i| LinkView { id: l(1 + i), from: n(1), to: n(2 + i) }))
            .collect();
        let spec = LayerSpec::paper_default();
        let trees: Vec<SessionTree> = (0..16u32)
            .map(|i| {
                let view = TopologyView {
                    time: SimTime::ZERO,
                    links: links.clone(),
                    groups: vec![GroupSnapshot {
                        group: GroupId(i),
                        root: n(0),
                        active_links: vec![l(0), l(1 + i)],
                        member_nodes: vec![n(2 + i)],
                    }],
                };
                SessionTree::build(&view, SessionId(i), &[GroupId(i)]).unwrap()
            })
            .collect();
        let specs: Vec<&LayerSpec> = (0..16).map(|_| &spec).collect();
        let b = 16.0 * 500_000.0;
        let m = compute(&trees, &specs, |id| (id == l(0)).then_some(b));
        for i in 0..16 {
            let a = m(i, n(2 + i as u32));
            assert!((a - 500_000.0).abs() < 1.0, "session {i} got {a}");
        }
    }
}

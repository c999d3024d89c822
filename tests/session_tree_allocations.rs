//! `SessionTree::build` allocates a fixed number of times, whatever the
//! size of the tree: its tables are arrays over the view's id range, each
//! sized once, with no per-node or per-group allocation and no regrowth.
//!
//! Allocations are counted per thread by this test binary's own
//! `#[global_allocator]`, so tests running beside it do not disturb the
//! count.

use netsim::{DirLinkId, GroupId, GroupSnapshot, NodeId, SessionId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use topology::discovery::{LinkView, TopologyView};
use topology::SessionTree;

/// Counts the allocations (and reallocations) each thread makes.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // A const-initialised `Cell` has no destructor: reaching it neither
    // allocates nor fails, even while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds `GlobalAlloc`'s contract for each of them; counting
// touches only a thread-local `Cell` and never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every method forwards
        // to it) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller's guarantees for `new_size` are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A fanout-10 tree of `depth` levels below node 0, as a captured view
/// with three layer groups: layer 0 on every link, layer 1 on the links
/// into the first half of the nodes, layer 2 into the first tenth.
fn fanout10_view(depth: u32) -> (TopologyView, [GroupId; 3]) {
    let nodes: u32 = (0..=depth).map(|d| 10u32.pow(d)).sum();
    // Node i > 0 hangs under (i - 1) / 10; its in-link is id i - 1.
    let links: Vec<LinkView> = (1..nodes)
        .map(|i| LinkView { id: DirLinkId(i - 1), from: NodeId((i - 1) / 10), to: NodeId(i) })
        .collect();
    let groups = [GroupId(0), GroupId(1), GroupId(2)];
    let snaps = groups
        .iter()
        .zip([nodes, nodes / 2, nodes / 10])
        .map(|(&group, reach)| GroupSnapshot {
            group,
            root: NodeId(0),
            active_links: (1..reach).map(|i| DirLinkId(i - 1)).collect(),
            member_nodes: Vec::new(),
        })
        .collect();
    (TopologyView { time: SimTime::ZERO, links, groups: snaps }, groups)
}

/// Allocations made by one `SessionTree::build` of the view.
fn build_allocations(view: &TopologyView, groups: &[GroupId]) -> (u64, usize) {
    let before = allocations();
    let tree = SessionTree::build(view, SessionId(0), groups).expect("a tree");
    let made = allocations() - before;
    (made, tree.tree().len())
}

/// Twelve allocations at 1,111 nodes and at 11,111: three scratch arrays,
/// six `Tree` tables, the two slot-indexed attribute arrays and the `Arc`.
#[test]
fn session_tree_build_allocates_a_fixed_number_of_times() {
    for depth in [3, 4] {
        let (view, groups) = fanout10_view(depth);
        let (made, len) = build_allocations(&view, &groups);
        assert_eq!(len, [1_111, 11_111][depth as usize - 3]);
        assert_eq!(made, 12, "{len} nodes");
    }
}

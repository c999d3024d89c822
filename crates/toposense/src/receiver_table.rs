//! The controller's receiver table: one entry per registered receiver,
//! found by [`AppId`] in O(1) and walked in ascending id order.
//!
//! Entries sit densely in one `Vec`, in no particular order (a removal
//! moves the last entry into the hole); an array indexed by the id holds
//! each entry's position. Memory is O(entries) plus 4 B per id up to the
//! largest one present. Every walk that can be seen from outside goes
//! through the id array, so nothing depends on arrival order
//! (determinism).

use netsim::AppId;

/// `index` value of an id with no entry.
const ABSENT: u32 = u32::MAX;

pub(crate) struct ReceiverTable<V> {
    /// `index[id]` is the position of `id`'s entry in `entries`, or
    /// `ABSENT`; never longer than the largest present id plus one.
    index: Vec<u32>,
    entries: Vec<(AppId, V)>,
}

impl<V> ReceiverTable<V> {
    pub(crate) fn new() -> Self {
        ReceiverTable { index: Vec::new(), entries: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn position(&self, id: AppId) -> Option<usize> {
        match self.index.get(id.index()) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    pub(crate) fn get(&self, id: AppId) -> Option<&V> {
        self.position(id).map(|p| &self.entries[p].1)
    }

    pub(crate) fn get_mut(&mut self, id: AppId) -> Option<&mut V> {
        self.position(id).map(|p| &mut self.entries[p].1)
    }

    /// The entry of `id`, inserting `admit()` first if there is none.
    pub(crate) fn get_or_insert_with(&mut self, id: AppId, admit: impl FnOnce() -> V) -> &mut V {
        let p = match self.position(id) {
            Some(p) => p,
            None => {
                if self.index.len() <= id.index() {
                    self.index.resize(id.index() + 1, ABSENT);
                }
                self.index[id.index()] = self.entries.len() as u32;
                self.entries.push((id, admit()));
                self.entries.len() - 1
            }
        };
        &mut self.entries[p].1
    }

    pub(crate) fn remove(&mut self, id: AppId) -> Option<V> {
        let p = self.position(id)?;
        Some(self.take(p))
    }

    /// Keep only the entries `keep` accepts, in one pass.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        let mut p = 0;
        while p < self.entries.len() {
            if keep(&self.entries[p].1) {
                p += 1;
            } else {
                // The last entry moves into `p`: look at it next.
                self.take(p);
            }
        }
    }

    /// Visit every entry in ascending id order.
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(AppId, &mut V)) {
        for &p in self.index.iter().filter(|&&p| p != ABSENT) {
            let (id, v) = &mut self.entries[p as usize];
            f(*id, v);
        }
    }

    /// Remove the entry at position `p`, moving the last one into its place.
    fn take(&mut self, p: usize) -> V {
        let (id, v) = self.entries.swap_remove(p);
        self.index[id.index()] = ABSENT;
        if let Some(&(moved, _)) = self.entries.get(p) {
            self.index[moved.index()] = p as u32;
        }
        while self.index.last() == Some(&ABSENT) {
            self.index.pop();
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// What a test entry carries: the receiver's node and when it was last
    /// heard from, the two columns register / report / evict / takeover
    /// touch.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Entry {
        node: u32,
        last_heard: u64,
    }

    fn walk(t: &mut ReceiverTable<Entry>) -> Vec<(AppId, Entry)> {
        let mut out = Vec::new();
        t.for_each_mut(|id, e| out.push((id, *e)));
        out
    }

    /// Random register / report / deregister / evict / takeover sequences
    /// over 64 ids, the table against a `BTreeMap` after every step: the
    /// same entries in the same id-ordered walk, the same `len`, the same
    /// answer from `get` for every id (and one past them), and an id array
    /// never longer than the largest present id.
    #[test]
    fn table_equals_a_btreemap_model() {
        netsim::rng::check("receiver_table/model", 200, |g| {
            let mut t = ReceiverTable::new();
            let mut model: BTreeMap<AppId, Entry> = BTreeMap::new();
            let mut now = 0u64;
            for _ in 0..g.range_u64(1, 300) {
                now += g.range_u64(0, 3);
                let id = AppId(g.range_u64(0, 64) as u32);
                let node = g.range_u64(0, 1_000) as u32;
                match g.range_u64(0, 8) {
                    // Register: admit or overwrite node and clock.
                    0..=2 => {
                        let fresh = Entry { node, last_heard: now };
                        *t.get_or_insert_with(id, || fresh) = fresh;
                        model.insert(id, fresh);
                    }
                    // Report: admit if unknown, restart the clock.
                    3 | 4 => {
                        let fresh = Entry { node, last_heard: now };
                        t.get_or_insert_with(id, || fresh).last_heard = now;
                        model.entry(id).or_insert(fresh).last_heard = now;
                    }
                    5 => assert_eq!(t.remove(id), model.remove(&id)),
                    // Evict everyone silent past a cutoff.
                    6 => {
                        let cutoff = now.saturating_sub(g.range_u64(0, 20));
                        t.retain(|e| e.last_heard >= cutoff);
                        model.retain(|_, e| e.last_heard >= cutoff);
                    }
                    // Takeover: re-anchor every clock, in id order.
                    _ => {
                        let mut order = Vec::new();
                        t.for_each_mut(|id, e| {
                            e.last_heard = now;
                            order.push(id);
                        });
                        model.values_mut().for_each(|e| e.last_heard = now);
                        assert!(order.windows(2).all(|w| w[0] < w[1]));
                    }
                }
                let want: Vec<(AppId, Entry)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(walk(&mut t), want);
                assert_eq!(t.len(), model.len());
                for i in 0..=64 {
                    assert_eq!(t.get(AppId(i)), model.get(&AppId(i)), "id {i}");
                }
                let top = model.keys().next_back().map_or(0, |k| k.index() + 1);
                assert_eq!(t.index.len(), top, "id array past the largest id");
            }
        });
    }
}

//! Counter registry for operational events.
//!
//! Names are dotted paths (`"ctrl.quarantines"`, `"sim.link_down_drops"`).
//! A `BTreeMap` keeps snapshots sorted, so emitted `"counters"` records
//! are deterministic given deterministic increments.

use std::collections::BTreeMap;

#[derive(Default, Debug, Clone)]
pub struct Counters {
    values: BTreeMap<String, u64>,
}

impl Counters {
    pub fn incr(&mut self, name: &str, delta: u64) {
        *self.values.entry(name.to_string()).or_insert(0) += delta;
    }

    pub fn set(&mut self, name: &str, value: u64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.values.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_set_get_and_sorted_snapshot() {
        let mut c = Counters::default();
        c.incr("z.late", 1);
        c.incr("a.early", 2);
        c.incr("a.early", 3);
        c.set("m.gauge", 42);
        c.set("m.gauge", 7);
        assert_eq!(c.get("a.early"), 5);
        assert_eq!(c.get("m.gauge"), 7);
        assert_eq!(c.get("missing"), 0);
        let snap = c.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a.early", "m.gauge", "z.late"]);
    }
}

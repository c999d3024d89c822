//! The session directory shared by sources, receivers, and controllers.
//!
//! The paper assumes "the average bandwidth of each layer is known
//! beforehand … advertised along with the multicast address of the layer".
//! [`SessionCatalog`] is that advertisement: for every session, the ordered
//! list of groups (one per layer) and the layer rates.

use crate::layers::LayerSpec;
use netsim::{GroupId, NodeId, SessionId};
use std::sync::Arc;

/// One advertised session.
#[derive(Clone, Debug)]
pub struct SessionDef {
    pub id: SessionId,
    /// Source node (group root for every layer).
    pub source: NodeId,
    /// `groups[k]` carries layer `k`.
    pub groups: Vec<GroupId>,
    /// Advertised layer rates.
    pub spec: LayerSpec,
}

impl SessionDef {
    /// The group of a subscription level's top layer (`level >= 1`).
    pub fn group_of_layer(&self, layer: u8) -> GroupId {
        self.groups[layer as usize]
    }
}

/// All advertised sessions. Cheap to share (`Arc`) between agents.
#[derive(Clone, Debug, Default)]
pub struct SessionCatalog {
    sessions: Vec<SessionDef>,
}

impl SessionCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advertise a session; its id must equal its position.
    pub fn add(&mut self, def: SessionDef) {
        assert_eq!(
            def.id.0 as usize,
            self.sessions.len(),
            "session ids must be dense and in order"
        );
        assert_eq!(def.groups.len(), def.spec.layer_count());
        self.sessions.push(def);
    }

    /// Look up one session.
    pub fn get(&self, id: SessionId) -> &SessionDef {
        &self.sessions[id.0 as usize]
    }

    /// All sessions.
    pub fn iter(&self) -> impl Iterator<Item = &SessionDef> {
        self.sessions.iter()
    }

    /// Number of advertised sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when nothing is advertised.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Find which `(session, layer)` a group carries.
    #[cfg(test)]
    fn locate_group(&self, g: GroupId) -> Option<(SessionId, u8)> {
        for s in &self.sessions {
            if let Some(k) = s.groups.iter().position(|&x| x == g) {
                return Some((s.id, k as u8));
            }
        }
        None
    }

    /// Freeze into a shareable handle.
    pub fn share(self) -> Arc<SessionCatalog> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> SessionCatalog {
        let mut c = SessionCatalog::new();
        c.add(SessionDef {
            id: SessionId(0),
            source: NodeId(0),
            groups: vec![GroupId(0), GroupId(1)],
            spec: LayerSpec::from_rates(vec![32_000.0, 64_000.0]),
        });
        c.add(SessionDef {
            id: SessionId(1),
            source: NodeId(5),
            groups: vec![GroupId(2), GroupId(3)],
            spec: LayerSpec::from_rates(vec![32_000.0, 64_000.0]),
        });
        c
    }

    #[test]
    fn lookup_and_locate() {
        let c = catalog();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(SessionId(1)).source, NodeId(5));
        assert_eq!(c.locate_group(GroupId(3)), Some((SessionId(1), 1)));
        assert_eq!(c.locate_group(GroupId(9)), None);
        assert_eq!(c.get(SessionId(0)).group_of_layer(1), GroupId(1));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn out_of_order_ids_panic() {
        let mut c = SessionCatalog::new();
        c.add(SessionDef {
            id: SessionId(3),
            source: NodeId(0),
            groups: vec![GroupId(0)],
            spec: LayerSpec::from_rates(vec![1.0]),
        });
    }

    #[test]
    #[should_panic]
    fn group_count_must_match_layers() {
        let mut c = SessionCatalog::new();
        c.add(SessionDef {
            id: SessionId(0),
            source: NodeId(0),
            groups: vec![GroupId(0)],
            spec: LayerSpec::from_rates(vec![1.0, 2.0]),
        });
    }
}

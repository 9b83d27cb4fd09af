//! The set of currently split records and their selected operations.
//!
//! "The system selects one splittable operation per split record per split
//! phase. The selected operation can change between phases … but within a
//! given phase, any operation but the selected operation causes the
//! containing transaction to abort (and retry in the next joined phase)."
//! (§4, guideline 3)
//!
//! A [`SplitSet`] is an immutable snapshot valid for one split phase. The
//! [`SplitRegistry`] holds the snapshot that the *next* (or current) split
//! phase uses; it is rebuilt by the classifier during each joined→split
//! transition and read (via a cheap `Arc` clone) by every worker when it
//! enters the split phase.
//!
//! Which operations *may* be selected is an open set: the splittable
//! operations themselves are [`SplitOp`] implementations held in a
//! [`SplitOpRegistry`] (re-exported here from `doppel_common::split_op`,
//! where the baseline engines share the same semantics). The split set
//! validates its decisions against that registry, so a freshly registered
//! operation becomes selectable without touching this module.

use doppel_common::{split_ops, Key, OpKind};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

pub use doppel_common::split_op::{SplitOp, SplitOpRegistry};

/// Immutable snapshot of split decisions for one split phase.
///
/// Every split key gets a dense *slot* (`0..len()`), so everything a worker
/// keeps per split key — its slices and their operation counts — is a `Vec`
/// indexed by slot, and a split write pays one hash lookup
/// ([`SplitSet::lookup`]) and no more.
#[derive(Clone, Debug, Default)]
pub struct SplitSet {
    slots: HashMap<Key, usize>,
    /// `(key, selected operation)` by slot.
    decisions: Vec<(Key, OpKind)>,
}

impl SplitSet {
    /// An empty split set (nothing is split).
    pub fn empty() -> Arc<SplitSet> {
        Arc::new(SplitSet::default())
    }

    /// Builds a split set from `(key, selected operation)` decisions (a
    /// repeated key keeps its last decision).
    ///
    /// # Panics
    ///
    /// Debug-asserts that every selected operation has a registered
    /// [`SplitOp`] implementation.
    pub fn from_decisions(decisions: impl IntoIterator<Item = (Key, OpKind)>) -> SplitSet {
        let mut set = SplitSet::default();
        for (key, op) in decisions {
            debug_assert!(
                split_ops().is_splittable(op),
                "split set contains an unsplittable operation"
            );
            match set.slots.get(&key) {
                Some(&slot) => set.decisions[slot].1 = op,
                None => {
                    set.slots.insert(key, set.decisions.len());
                    set.decisions.push((key, op));
                }
            }
        }
        set
    }

    /// The slot and selected operation of `key`, or `None` if the key is not
    /// split.
    #[inline]
    pub fn lookup(&self, key: &Key) -> Option<(usize, OpKind)> {
        self.slots.get(key).map(|&slot| (slot, self.decisions[slot].1))
    }

    /// The selected operation for `key`, or `None` if the key is not split.
    pub fn selected_op(&self, key: &Key) -> Option<OpKind> {
        self.lookup(key).map(|(_, op)| op)
    }

    /// True if `key` is split in this phase.
    pub fn is_split(&self, key: &Key) -> bool {
        self.slots.contains_key(key)
    }

    /// Number of split records.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True when nothing is split.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The `(key, selected operation)` pairs, indexed by slot.
    pub fn decisions(&self) -> &[(Key, OpKind)] {
        &self.decisions
    }
}

/// Holder of the split set used by the current / next split phase.
#[derive(Debug)]
pub struct SplitRegistry {
    current: RwLock<Arc<SplitSet>>,
}

impl SplitRegistry {
    /// Creates a registry with an empty split set.
    pub fn new() -> Self {
        SplitRegistry { current: RwLock::new(SplitSet::empty()) }
    }

    /// The split set workers should use for the split phase they are
    /// entering.
    pub fn current(&self) -> Arc<SplitSet> {
        Arc::clone(&self.current.read())
    }

    /// Installs a new split set (called during the joined→split transition,
    /// before the transition is released).
    pub fn install(&self, set: SplitSet) {
        *self.current.write() = Arc::new(set);
    }
}

impl Default for SplitRegistry {
    fn default() -> Self {
        SplitRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set() {
        let s = SplitSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.is_split(&Key::raw(1)));
        assert_eq!(s.selected_op(&Key::raw(1)), None);
    }

    #[test]
    fn decisions_are_queryable() {
        let s = SplitSet::from_decisions([
            (Key::raw(1), OpKind::Add),
            (Key::raw(2), OpKind::Max),
        ]);
        assert_eq!(s.len(), 2);
        assert!(s.is_split(&Key::raw(1)));
        assert_eq!(s.selected_op(&Key::raw(1)), Some(OpKind::Add));
        assert_eq!(s.selected_op(&Key::raw(2)), Some(OpKind::Max));
        assert_eq!(s.selected_op(&Key::raw(3)), None);
        // Slots are dense and name the decision they were looked up from.
        for (slot, (key, op)) in s.decisions().iter().enumerate() {
            assert_eq!(s.lookup(key), Some((slot, *op)));
        }
    }

    #[test]
    fn registry_swaps_snapshots() {
        let reg = SplitRegistry::new();
        let before = reg.current();
        assert!(before.is_empty());
        reg.install(SplitSet::from_decisions([(Key::raw(7), OpKind::Add)]));
        let after = reg.current();
        assert!(after.is_split(&Key::raw(7)));
        // The old snapshot is unaffected (workers mid-phase keep their view).
        assert!(before.is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unsplittable")]
    fn unsplittable_decision_panics_in_debug() {
        let _ = SplitSet::from_decisions([(Key::raw(1), OpKind::Put)]);
    }
}

//! Per-decision equivalence-class table for LibraRisk's node loop.
//!
//! Within one decision the candidate and `now` are fixed, so a node's
//! `(μ_j, σ_j)` is a pure function of its canonical resident multiset and
//! its speed. [`ClassTable`] records the first evaluation of each such
//! profile so later nodes of the same class replay it instead of running
//! the projection kernel.
//!
//! The map is a tiny open-addressing table (linear probing, power-of-two
//! capacity, fx-style multiplicative hash) rather than `std::HashMap`:
//! the admission loop performs one lookup per evaluated node per
//! decision, and SipHash dominates at that grain.

/// Hard cap on stored entries. A decision over a cluster whose nodes
/// never share a class would otherwise grow the table without bound;
/// past the cap the table is cleared and refilled (it is per-decision
/// scratch, not state — dropping it only costs recomputation).
const MAX_ENTRIES: usize = 4096;

/// Combines a node's canonical load-class hash
/// ([`cluster::projection::canonical_class_keys`]) with its speed factor
/// into the lookup key of a [`ClassTable`]. Risk is a function of
/// (resident multiset, speed, candidate, now); within one decision the
/// candidate and `now` are fixed, so this pair identifies the evaluation.
#[inline]
pub fn class_key(class_hash: u64, speed_factor: f64) -> u64 {
    class_hash ^ speed_factor.to_bits().rotate_left(32)
}

#[derive(Clone, Copy, Debug)]
struct ClassSlot {
    key: u64,
    /// Representative node index; `u32::MAX` marks a vacant slot (node
    /// indices are bounded by the cluster size, far below the sentinel).
    rep: u32,
    mu: f64,
    sigma: f64,
}

const CLASS_VACANT: ClassSlot = ClassSlot {
    key: 0,
    rep: u32::MAX,
    mu: 0.0,
    sigma: 0.0,
};

/// Per-decision equivalence-class table: load-class key → the first node
/// evaluated in that class (the *representative*) and the `(μ, σ)` its
/// projection produced. Nodes whose canonical signature and speed match
/// the representative share its result without running the kernel.
///
/// The table is scratch, cleared at the start of every decision — class
/// membership is only meaningful at one `(now, candidate)` point, and
/// clearing sidesteps invalidation entirely. Keys are 64-bit hashes, so
/// a colliding pair of *different* classes is possible in principle; the
/// caller therefore confirms a hit by comparing the canonical key list
/// against the representative's before trusting it, and treats a failed
/// confirmation as a miss: a hit can never change a decision, only skip
/// recomputation.
#[derive(Clone, Debug, Default)]
pub struct ClassTable {
    slots: Vec<ClassSlot>,
    len: usize,
}

impl ClassTable {
    /// An empty table; storage is allocated on first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct classes inserted since the last [`Self::clear`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no class has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every entry (keeps the allocation) — call at decision start.
    pub fn clear(&mut self) {
        self.slots.fill(CLASS_VACANT);
        self.len = 0;
    }

    /// The representative and `(μ, σ)` recorded for `key`, if any.
    pub fn get(&self, key: u64) -> Option<(u32, f64, f64)> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize & mask;
        loop {
            let s = &self.slots[i];
            if s.rep != u32::MAX && s.key == key {
                return Some((s.rep, s.mu, s.sigma));
            }
            if s.rep == u32::MAX {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `rep` as the class representative for `key` (first writer
    /// wins within a decision; an overwrite after a hash collision is
    /// harmless because hits are confirmed against the representative).
    pub fn insert(&mut self, key: u64, rep: u32, mu: f64, sigma: f64) {
        debug_assert_ne!(
            rep,
            u32::MAX,
            "representative collides with the vacancy sentinel"
        );
        if self.len >= MAX_ENTRIES {
            self.clear();
        }
        if self.slots.len() < 2 * (self.len + 1) {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize & mask;
        loop {
            let s = &mut self.slots[i];
            if s.rep != u32::MAX && s.key == key {
                return; // first writer wins
            }
            if s.rep == u32::MAX {
                *s = ClassSlot {
                    key,
                    rep,
                    mu,
                    sigma,
                };
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![CLASS_VACANT; new_cap]);
        let mask = new_cap - 1;
        for s in old {
            if s.rep == u32::MAX {
                continue;
            }
            let mut i = s.key.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize & mask;
            while self.slots[i].rep != u32::MAX {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_first_writer_wins_and_clears() {
        let mut t = ClassTable::new();
        let k = class_key(0xdead_beef, 1.0);
        assert!(t.get(k).is_none());
        t.insert(k, 3, 1.5, 0.25);
        t.insert(k, 9, 9.9, 9.9); // later writer ignored
        let (rep, mu, sigma) = t.get(k).unwrap();
        assert_eq!((rep, mu, sigma), (3, 1.5, 0.25));
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
        assert!(t.get(k).is_none());
    }

    #[test]
    fn class_table_survives_growth() {
        let mut t = ClassTable::new();
        for i in 0..600u64 {
            t.insert(
                class_key(i.wrapping_mul(0x1234_5678_9abc), 1.0),
                i as u32,
                i as f64,
                0.0,
            );
        }
        assert_eq!(t.len(), 600);
        for i in 0..600u64 {
            let (rep, mu, _) = t
                .get(class_key(i.wrapping_mul(0x1234_5678_9abc), 1.0))
                .unwrap();
            assert_eq!((rep, mu), (i as u32, i as f64), "class {i}");
        }
    }

    #[test]
    fn class_table_clears_when_cap_is_hit() {
        let mut t = ClassTable::new();
        for i in 0..(MAX_ENTRIES as u64 + 10) {
            t.insert(class_key(i << 1, 1.0), i as u32, 1.0, 0.0);
        }
        assert!(t.len() <= MAX_ENTRIES, "cap enforced, len {}", t.len());
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn class_key_separates_speeds() {
        assert_ne!(class_key(42, 1.0), class_key(42, 2.0));
        assert_ne!(class_key(42, 1.0), class_key(43, 1.0));
    }
}

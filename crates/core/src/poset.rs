//! TERP posets (Definition 4) and Hasse diagrams (Figure 2).
//!
//! A TERP poset organizes protection mechanisms by a partial order — in the
//! paper, the order of the *permission groups* each mechanism deprives:
//! thread-level permission control sits below process-level attach/detach,
//! which sits below user- and group-level permissions. The EW-conscious
//! semantics exploits the order by *lowering* an operation to a weaker
//! (finer-grained, cheaper) level when the stronger one is unnecessary.
//!
//! [`Poset`] is a small generic partially-ordered-set container with law
//! checking and Hasse-edge (covering relation) extraction;
//! [`ProtectionLevel`] and [`terp_protection_poset`] instantiate it for the
//! mechanisms the paper discusses.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A finite poset over elements of type `T`, built from explicit `a ≤ b`
/// facts and closed under reflexivity/transitivity.
///
/// ```
/// use terp_core::poset::Poset;
/// let mut p = Poset::new(vec!["thread", "process", "user"]);
/// p.add_le("thread", "process").unwrap();
/// p.add_le("process", "user").unwrap();
/// assert!(p.le(&"thread", &"user")); // transitive closure
/// assert!(!p.le(&"user", &"thread"));
/// assert_eq!(p.hasse_edges(), vec![(&"thread", &"process"), (&"process", &"user")]);
/// ```
#[derive(Debug, Clone)]
pub struct Poset<T> {
    elements: Vec<T>,
    /// `le[i][j]` = element i ≤ element j.
    le: Vec<Vec<bool>>,
}

/// Error adding a relation that would break antisymmetry, or naming an
/// unknown element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PosetError {
    /// The element is not in the poset.
    UnknownElement,
    /// Adding this relation would create `a ≤ b ≤ a` for distinct elements.
    AntisymmetryViolation,
}

impl fmt::Display for PosetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PosetError::UnknownElement => f.write_str("element not in poset"),
            PosetError::AntisymmetryViolation => f.write_str("relation would violate antisymmetry"),
        }
    }
}

impl std::error::Error for PosetError {}

impl<T: PartialEq> Poset<T> {
    /// Creates a poset with only the reflexive relation.
    pub fn new(elements: Vec<T>) -> Self {
        let n = elements.len();
        let mut le = vec![vec![false; n]; n];
        for (i, row) in le.iter_mut().enumerate() {
            row[i] = true;
        }
        Poset { elements, le }
    }

    fn index(&self, x: &T) -> Option<usize> {
        self.elements.iter().position(|e| e == x)
    }

    /// Records `a ≤ b` and re-closes transitively.
    ///
    /// # Errors
    ///
    /// [`PosetError::UnknownElement`] if either element is absent;
    /// [`PosetError::AntisymmetryViolation`] if `b < a` already holds.
    pub fn add_le(&mut self, a: T, b: T) -> Result<(), PosetError>
    where
        T: Clone,
    {
        let i = self.index(&a).ok_or(PosetError::UnknownElement)?;
        let j = self.index(&b).ok_or(PosetError::UnknownElement)?;
        if i != j && self.le[j][i] {
            return Err(PosetError::AntisymmetryViolation);
        }
        self.le[i][j] = true;
        self.close_transitively();
        Ok(())
    }

    fn close_transitively(&mut self) {
        let n = self.elements.len();
        for k in 0..n {
            for i in 0..n {
                if self.le[i][k] {
                    for j in 0..n {
                        if self.le[k][j] {
                            self.le[i][j] = true;
                        }
                    }
                }
            }
        }
    }

    /// Whether `a ≤ b`.
    pub fn le(&self, a: &T, b: &T) -> bool {
        match (self.index(a), self.index(b)) {
            (Some(i), Some(j)) => self.le[i][j],
            _ => false,
        }
    }

    /// Whether `a` and `b` are comparable.
    pub fn comparable(&self, a: &T, b: &T) -> bool {
        self.le(a, b) || self.le(b, a)
    }

    /// The covering relation: pairs `(a, b)` with `a < b` and no `c` strictly
    /// between — exactly the edges a Hasse diagram draws.
    pub fn hasse_edges(&self) -> Vec<(&T, &T)> {
        let n = self.elements.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j || !self.le[i][j] {
                    continue;
                }
                let covered = (0..n).any(|k| k != i && k != j && self.le[i][k] && self.le[k][j]);
                if !covered {
                    edges.push((&self.elements[i], &self.elements[j]));
                }
            }
        }
        edges
    }

    /// Maximal elements (no strictly greater element).
    pub fn maximal(&self) -> Vec<&T> {
        let n = self.elements.len();
        (0..n)
            .filter(|&i| (0..n).all(|j| i == j || !self.le[i][j]))
            .map(|i| &self.elements[i])
            .collect()
    }

    /// Minimal elements (no strictly smaller element).
    pub fn minimal(&self) -> Vec<&T> {
        let n = self.elements.len();
        (0..n)
            .filter(|&i| (0..n).all(|j| i == j || !self.le[j][i]))
            .map(|i| &self.elements[i])
            .collect()
    }

    /// Verifies the partial-order laws (reflexivity, antisymmetry,
    /// transitivity) hold on the stored relation. Always true for posets
    /// built through [`Self::add_le`]; used by property tests.
    pub fn check_laws(&self) -> Result<(), String> {
        let n = self.elements.len();
        for i in 0..n {
            if !self.le[i][i] {
                return Err(format!("reflexivity fails at {i}"));
            }
            for j in 0..n {
                if i != j && self.le[i][j] && self.le[j][i] {
                    return Err(format!("antisymmetry fails at ({i},{j})"));
                }
                for k in 0..n {
                    if self.le[i][j] && self.le[j][k] && !self.le[i][k] {
                        return Err(format!("transitivity fails at ({i},{j},{k})"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the poset is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

/// The protection mechanisms the paper orders (Section III and Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProtectionLevel {
    /// Thread permission control on one thread (Intel-MPK-style) — the level
    /// EW-conscious lowering targets.
    ThreadPermission {
        /// The controlled thread.
        thread: usize,
    },
    /// Process-wide attach/detach (address-space mapping): stronger — even
    /// Spectre-class attacks cannot touch an unmapped PMO.
    ProcessAttach,
    /// Per-user permission (OS namespace level).
    UserPermission {
        /// User index (e.g. A = 0, B = 1 as in Figure 2).
        user: u8,
    },
    /// User-group permission — the top of Figure 2's example.
    GroupPermission,
}

impl fmt::Display for ProtectionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionLevel::ThreadPermission { thread } => write!(f, "thread-perm(t{thread})"),
            ProtectionLevel::ProcessAttach => f.write_str("process-attach"),
            ProtectionLevel::UserPermission { user } => write!(f, "user-perm({user})"),
            ProtectionLevel::GroupPermission => f.write_str("group-perm"),
        }
    }
}

/// Builds the Figure 2 TERP poset: three thread-permission mechanisms below
/// process attach/detach, two user levels above it, one group level at the
/// top.
pub fn terp_protection_poset(threads: usize, users: u8) -> Poset<ProtectionLevel> {
    let mut elements = Vec::new();
    for t in 0..threads {
        elements.push(ProtectionLevel::ThreadPermission { thread: t });
    }
    elements.push(ProtectionLevel::ProcessAttach);
    for u in 0..users {
        elements.push(ProtectionLevel::UserPermission { user: u });
    }
    elements.push(ProtectionLevel::GroupPermission);

    let mut poset = Poset::new(elements);
    for t in 0..threads {
        poset
            .add_le(
                ProtectionLevel::ThreadPermission { thread: t },
                ProtectionLevel::ProcessAttach,
            )
            .expect("fresh relation");
    }
    for u in 0..users {
        poset
            .add_le(
                ProtectionLevel::ProcessAttach,
                ProtectionLevel::UserPermission { user: u },
            )
            .expect("fresh relation");
        poset
            .add_le(
                ProtectionLevel::UserPermission { user: u },
                ProtectionLevel::GroupPermission,
            )
            .expect("fresh relation");
    }
    debug_assert!(poset.check_laws().is_ok());
    poset
}

/// Set of distinct strength classes in a poset — used to express "lowering"
/// (replace an operation at one level by one at a ≤ level).
pub fn strictly_below<'a, T: PartialEq>(poset: &'a Poset<T>, x: &T) -> Vec<&'a T> {
    let mut out = Vec::new();
    for e in &poset.elements {
        if e != x && poset.le(e, x) {
            out.push(e);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn figure_2_shape() {
        let p = terp_protection_poset(3, 2);
        // 3 thread levels + process + 2 users + group = 7 elements.
        assert_eq!(p.len(), 7);
        assert!(p.le(
            &ProtectionLevel::ThreadPermission { thread: 0 },
            &ProtectionLevel::GroupPermission
        ));
        // Thread levels are mutually incomparable.
        assert!(!p.comparable(
            &ProtectionLevel::ThreadPermission { thread: 0 },
            &ProtectionLevel::ThreadPermission { thread: 1 }
        ));
        // User levels are mutually incomparable.
        assert!(!p.comparable(
            &ProtectionLevel::UserPermission { user: 0 },
            &ProtectionLevel::UserPermission { user: 1 }
        ));
        assert_eq!(p.maximal(), vec![&ProtectionLevel::GroupPermission]);
        assert_eq!(p.minimal().len(), 3);
        p.check_laws().unwrap();
    }

    #[test]
    fn hasse_edges_are_covers_only() {
        let p = terp_protection_poset(2, 1);
        let edges = p.hasse_edges();
        // 2 thread→process + process→user + user→group = 4 cover edges; the
        // transitive thread→user/thread→group edges must NOT appear.
        assert_eq!(edges.len(), 4);
        assert!(!edges.iter().any(|(a, b)| matches!(
            (a, b),
            (
                ProtectionLevel::ThreadPermission { .. },
                ProtectionLevel::GroupPermission
            )
        )));
    }

    #[test]
    fn antisymmetry_is_enforced() {
        let mut p = Poset::new(vec![1, 2]);
        p.add_le(1, 2).unwrap();
        assert_eq!(p.add_le(2, 1), Err(PosetError::AntisymmetryViolation));
    }

    #[test]
    fn unknown_elements_rejected() {
        let mut p = Poset::new(vec![1, 2]);
        assert_eq!(p.add_le(1, 9), Err(PosetError::UnknownElement));
    }

    #[test]
    fn lowering_targets_are_strictly_below() {
        let p = terp_protection_poset(2, 1);
        let below = strictly_below(&p, &ProtectionLevel::ProcessAttach);
        assert_eq!(below.len(), 2);
        assert!(below
            .iter()
            .all(|e| matches!(e, ProtectionLevel::ThreadPermission { .. })));
    }

    proptest! {
        /// Posets built from random consistent relations always satisfy the
        /// partial-order laws.
        #[test]
        fn random_chains_satisfy_laws(edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24)) {
            let mut p = Poset::new((0..8usize).collect());
            for (a, b) in edges {
                // Ignore rejected relations (antisymmetry conflicts).
                let _ = p.add_le(a, b);
            }
            prop_assert!(p.check_laws().is_ok(), "{:?}", p.check_laws());
        }

        /// Hasse edges regenerate the full order via transitive closure.
        #[test]
        fn hasse_edges_generate_order(edges in proptest::collection::vec((0usize..6, 0usize..6), 0..15)) {
            let mut p = Poset::new((0..6usize).collect());
            for (a, b) in edges {
                let _ = p.add_le(a, b);
            }
            let hasse: Vec<(usize, usize)> = p.hasse_edges().iter().map(|(a, b)| (**a, **b)).collect();
            let mut q = Poset::new((0..6usize).collect());
            for (a, b) in hasse {
                q.add_le(a, b).unwrap();
            }
            for a in 0..6usize {
                for b in 0..6usize {
                    prop_assert_eq!(p.le(&a, &b), q.le(&a, &b), "mismatch at {} {}", a, b);
                }
            }
        }
    }
}

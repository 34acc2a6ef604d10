//! A snapshotting stat registry.
//!
//! Every timing model in the stack exposes its internal counters through a
//! [`StatSet`] snapshot so that report printers (and the experiment binaries)
//! can enumerate them uniformly without knowing each component's type.

use std::collections::BTreeMap;
use std::fmt;

/// An ordered name → value snapshot of a component's statistics.
///
/// Components implement a `stats(&self) -> StatSet` method; sets from
/// subcomponents are merged under a prefix with [`StatSet::absorb`].
///
/// # Example
///
/// ```
/// use svmsyn_sim::StatSet;
/// let mut inner = StatSet::new();
/// inner.put("hits", 10.0);
/// let mut outer = StatSet::new();
/// outer.put("cycles", 500.0);
/// outer.absorb("tlb", inner);
/// assert_eq!(outer.get("tlb.hits"), Some(10.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatSet {
    values: BTreeMap<String, f64>,
}

impl StatSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        StatSet::default()
    }

    /// Inserts (or overwrites) a value.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Looks up a value by exact name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Merges `other` into `self`, prefixing each of its names with
    /// `prefix` + `"."`.
    pub fn absorb(&mut self, prefix: &str, other: StatSet) {
        for (k, v) in other.values {
            // Manual concat: this runs per key on every per-run stats
            // snapshot, where `format!`'s formatting machinery is measurable.
            let mut key = String::with_capacity(prefix.len() + 1 + k.len());
            key.push_str(prefix);
            key.push('.');
            key.push_str(&k);
            self.values.insert(key, v);
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.values {
            writeln!(f, "{k:<48} {v:>16.3}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a StatSet {
    type Item = (&'a String, &'a f64);
    type IntoIter = std::collections::btree_map::Iter<'a, String, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

impl FromIterator<(String, f64)> for StatSet {
    fn from_iter<T: IntoIterator<Item = (String, f64)>>(iter: T) -> Self {
        StatSet {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, f64)> for StatSet {
    fn extend<T: IntoIterator<Item = (String, f64)>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statset_roundtrip() {
        let mut s = StatSet::new();
        s.put("a", 1.0);
        s.put("b", 2.0);
        assert_eq!(s.get("a"), Some(1.0));
        assert_eq!(s.get("missing"), None);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        let rendered = s.to_string();
        assert!(rendered.contains('a') && rendered.contains("2.000"));
    }

    #[test]
    fn statset_absorb_prefixes() {
        let mut inner = StatSet::new();
        inner.put("x", 5.0);
        let mut outer = StatSet::new();
        outer.absorb("sub", inner);
        assert_eq!(outer.get("sub.x"), Some(5.0));
    }

    #[test]
    fn statset_collect_and_extend() {
        let s: StatSet = vec![("k".to_string(), 3.0)].into_iter().collect();
        assert_eq!(s.get("k"), Some(3.0));
        let mut t = StatSet::new();
        t.extend(vec![("z".to_string(), 4.0)]);
        assert_eq!(t.get("z"), Some(4.0));
        let pairs: Vec<_> = (&t).into_iter().collect();
        assert_eq!(pairs.len(), 1);
    }
}

//! The one def / use / free liveness walk every lifetime rule feeds:
//! trace buffers (GL001/002/004/007) and plan slots (GL401/404/406).
//!
//! A [`Liveness`] map holds one [`Life`] per key. The caller walks its
//! artifact in order and reports each answer under its own rule ids.

use std::collections::BTreeMap;

/// One life of a key.
#[derive(Debug)]
pub(crate) struct Life<V> {
    /// Index of the defining event or step.
    pub(crate) def: usize,
    /// Index of the first free, once freed.
    pub(crate) freed: Option<usize>,
    /// The caller's per-life facts.
    pub(crate) data: V,
}

/// What a use or a free of a key finds.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Access<'a, V> {
    /// The key is live; here are its facts.
    Live(&'a mut V),
    /// The key was freed at this index.
    Freed(usize),
    /// Nothing defined the key (or a reset forgot it).
    Undefined,
}

/// Every key's current life, in key order.
#[derive(Debug)]
pub(crate) struct Liveness<K, V = ()> {
    lives: BTreeMap<K, Life<V>>,
}

impl<K: Ord + Copy, V> Liveness<K, V> {
    pub(crate) fn new() -> Self {
        Liveness {
            lives: BTreeMap::new(),
        }
    }

    /// Start a new life of `key` at `at`, replacing any earlier one.
    /// Returns the replaced life's definition index if it was still live.
    pub(crate) fn define(&mut self, key: K, at: usize, data: V) -> Option<usize> {
        let life = Life {
            def: at,
            freed: None,
            data,
        };
        let old = self.lives.insert(key, life)?;
        old.freed.is_none().then_some(old.def)
    }

    /// Use `key`.
    pub(crate) fn access(&mut self, key: K) -> Access<'_, V> {
        match self.lives.get_mut(&key) {
            None => Access::Undefined,
            Some(Life {
                freed: Some(at), ..
            }) => Access::Freed(*at),
            Some(life) => Access::Live(&mut life.data),
        }
    }

    /// Free `key` at `at`, returning what the free found: only a live
    /// key changes state (a second free keeps the first index).
    pub(crate) fn free(&mut self, key: K, at: usize) -> Access<'_, V> {
        match self.lives.get_mut(&key) {
            None => Access::Undefined,
            Some(Life {
                freed: Some(first), ..
            }) => Access::Freed(*first),
            Some(life) => {
                life.freed = Some(at);
                Access::Live(&mut life.data)
            }
        }
    }

    /// The facts of every live key.
    pub(crate) fn live_mut(&mut self) -> impl Iterator<Item = &mut V> {
        let live = self.lives.values_mut().filter(|l| l.freed.is_none());
        live.map(|l| &mut l.data)
    }

    /// Every life, freed or not, in key order.
    pub(crate) fn lives(&self) -> impl Iterator<Item = (K, &Life<V>)> {
        self.lives.iter().map(|(k, l)| (*k, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_life_runs_define_use_free() {
        let mut l: Liveness<u32> = Liveness::new();
        assert_eq!(l.access(1), Access::Undefined);
        assert_eq!(l.define(1, 0, ()), None);
        assert_eq!(l.access(1), Access::Live(&mut ()));
        assert_eq!(l.free(1, 4), Access::Live(&mut ()));
        assert_eq!(l.access(1), Access::Freed(4));
        assert_eq!(
            l.free(1, 6),
            Access::Freed(4),
            "a double free keeps the first"
        );
        assert_eq!(l.free(2, 6), Access::Undefined);
        assert_eq!(l.lives().filter(|(_, l)| l.freed.is_none()).count(), 0);
    }

    #[test]
    fn redefinition_reports_a_live_predecessor_only() {
        let mut l: Liveness<u32> = Liveness::new();
        l.define(1, 0, ());
        assert_eq!(l.define(1, 2, ()), Some(0), "still live");
        l.free(1, 3);
        assert_eq!(l.define(1, 5, ()), None, "freed first");
        let lives: Vec<_> = l.lives().map(|(k, l)| (k, l.def, l.freed)).collect();
        assert_eq!(lives, vec![(1, 5, None)]);
    }

    #[test]
    fn live_mut_skips_freed_lives() {
        let mut l: Liveness<u32, bool> = Liveness::new();
        l.define(1, 0, false);
        l.define(2, 1, false);
        l.free(2, 2);
        for live in l.live_mut() {
            *live = true;
        }
        assert_eq!(l.access(1), Access::Live(&mut true));
        assert_eq!(
            l.access(2),
            Access::Freed(2),
            "a freed life stays untouched"
        );
    }
}

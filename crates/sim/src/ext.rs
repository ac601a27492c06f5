//! Typed extension blackboard.
//!
//! Higher layers (the virtualization substrate, HDFS, vRead) need shared
//! mutable state that several actors consult synchronously — page caches,
//! guest filesystems, mount tables. Making each of those an actor would
//! force an asynchronous round-trip for what is logically a function call,
//! so instead the world carries a type-indexed map: each crate stores its
//! own state struct and retrieves it by type.

use std::any::{Any, TypeId};

use crate::fxhash::FxHashMap;

/// A type-indexed map of singleton extension states.
#[derive(Default)]
pub struct Extensions {
    map: FxHashMap<TypeId, Box<dyn Any>>,
}

impl std::fmt::Debug for Extensions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Extensions({} entries)", self.map.len())
    }
}

impl Extensions {
    /// Creates an empty blackboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value`, replacing and returning any previous value of the
    /// same type.
    pub fn insert<T: 'static>(&mut self, value: T) -> Option<T> {
        self.map
            .insert(TypeId::of::<T>(), Box::new(value))
            .map(|old| *old.downcast::<T>().expect("typeid collision"))
    }

    /// Shared access to the stored `T`, if present.
    pub fn get<T: 'static>(&self) -> Option<&T> {
        self.map
            .get(&TypeId::of::<T>())
            .map(|b| b.downcast_ref::<T>().expect("typeid collision"))
    }

    /// Exclusive access to the stored `T`, if present.
    pub fn get_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.map
            .get_mut(&TypeId::of::<T>())
            .map(|b| b.downcast_mut::<T>().expect("typeid collision"))
    }

    /// Exclusive access to the stored `T`, inserting `T::default()` first
    /// if absent.
    pub fn get_or_default<T: 'static + Default>(&mut self) -> &mut T {
        self.map
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(T::default()))
            .downcast_mut::<T>()
            .expect("typeid collision")
    }

    /// Removes and returns the stored `T`.
    pub fn remove<T: 'static>(&mut self) -> Option<T> {
        self.map
            .remove(&TypeId::of::<T>())
            .map(|b| *b.downcast::<T>().expect("typeid collision"))
    }

    /// Removes the stored `T` in its box, for a caller that puts it back
    /// with [`Extensions::put`]: the state moves without being copied or
    /// reallocated.
    pub fn take<T: 'static>(&mut self) -> Option<Box<T>> {
        self.map
            .remove(&TypeId::of::<T>())
            .map(|b| b.downcast::<T>().expect("typeid collision"))
    }

    /// Stores a boxed `T` taken with [`Extensions::take`], replacing any
    /// value of the same type.
    pub fn put<T: 'static>(&mut self, value: Box<T>) {
        self.map.insert(TypeId::of::<T>(), value);
    }

    /// Number of stored extension states.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default, Debug, PartialEq)]
    struct CacheState {
        hits: u32,
    }

    #[test]
    fn insert_get_mutate() {
        let mut e = Extensions::new();
        assert!(e.get::<CacheState>().is_none());
        e.insert(CacheState { hits: 1 });
        e.get_mut::<CacheState>().unwrap().hits += 1;
        assert_eq!(e.get::<CacheState>().unwrap().hits, 2);
    }

    #[test]
    fn get_or_default_inserts() {
        let mut e = Extensions::new();
        e.get_or_default::<CacheState>().hits = 5;
        assert_eq!(e.get::<CacheState>().unwrap().hits, 5);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn replace_returns_old() {
        let mut e = Extensions::new();
        assert_eq!(e.insert(CacheState { hits: 1 }), None);
        let old = e.insert(CacheState { hits: 9 });
        assert_eq!(old, Some(CacheState { hits: 1 }));
        assert_eq!(e.remove::<CacheState>(), Some(CacheState { hits: 9 }));
        assert!(e.is_empty());
    }

    #[test]
    fn take_and_put_move_the_box() {
        let mut e = Extensions::new();
        e.insert(CacheState { hits: 3 });
        let mut b = e.take::<CacheState>().unwrap();
        let addr: *const CacheState = &*b;
        assert!(e.get::<CacheState>().is_none());
        b.hits += 1;
        e.put(b);
        let back = e.get::<CacheState>().unwrap();
        assert_eq!(back.hits, 4);
        assert!(std::ptr::eq(addr, back), "put reuses the taken box");
    }
}

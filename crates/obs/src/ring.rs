//! Bounded in-memory history: a generic ring plus the [`RingSink`] event sink.
//!
//! Long simulations emit far more events than anyone wants to keep; the ring
//! keeps the most recent `capacity` items and counts what it had to evict,
//! so exporters can say "…and 12 034 earlier events were dropped".

use crate::event::{Event, EventSink};
use std::collections::VecDeque;

/// A bounded FIFO that evicts its oldest element when full.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Ring {
            items: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends `item`, evicting the oldest element if at capacity.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum number of items the ring will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates oldest-first over the retained items.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// The retained items oldest-first as a contiguous slice.
    pub fn as_slice(&mut self) -> &[T] {
        self.items.make_contiguous();
        self.items.as_slices().0
    }

    /// Removes and returns all retained items, oldest-first.
    pub fn drain(&mut self) -> Vec<T> {
        self.items.drain(..).collect()
    }
}

/// An [`EventSink`] backed by a [`Ring`] of [`Event`]s.
#[derive(Clone, Debug)]
pub struct RingSink {
    ring: Ring<Event>,
}

impl RingSink {
    /// Creates a sink retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            ring: Ring::new(capacity),
        }
    }

    /// The retained events oldest-first.
    pub fn events(&mut self) -> &[Event] {
        self.ring.as_slice()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Borrows the underlying ring.
    pub fn ring(&self) -> &Ring<Event> {
        &self.ring
    }
}

impl EventSink for RingSink {
    fn emit(&mut self, ev: Event) {
        self.ring.push(ev);
    }
}

/// A cloneable, shared handle around an [`EventSink`].
///
/// Some consumers take *ownership* of their sink — e.g. the platform's
/// signal-trace spill adapter lives inside the signal board for the whole
/// session. `SharedSink` lets the producer own one handle while the
/// observer keeps another, so the stream can still be inspected or
/// exported afterwards. Backed by `Arc<Mutex<_>>` so the owning consumer
/// (and the platform embedding it) can cross threads; contention is nil in
/// the single-threaded simulator loop.
#[derive(Debug, Default)]
pub struct SharedSink<S: EventSink>(std::sync::Arc<std::sync::Mutex<S>>);

impl<S: EventSink> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(std::sync::Arc::clone(&self.0))
    }
}

impl<S: EventSink> SharedSink<S> {
    /// Wraps `sink` in a shared handle.
    pub fn new(sink: S) -> Self {
        SharedSink(std::sync::Arc::new(std::sync::Mutex::new(sink)))
    }

    /// Runs `f` with mutable access to the wrapped sink.
    ///
    /// # Panics
    ///
    /// If the mutex was poisoned by a panic in another `with` call.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().expect("SharedSink poisoned"))
    }
}

impl<S: EventSink> EventSink for SharedSink<S> {
    fn emit(&mut self, ev: Event) {
        self.0.lock().expect("SharedSink poisoned").emit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut ring = Ring::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.as_slice(), &[2, 3, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = Ring::new(0);
        ring.push('a');
        ring.push('b');
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.as_slice(), &['b']);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn drain_empties_but_keeps_drop_count() {
        let mut ring = Ring::new(2);
        ring.push(1);
        ring.push(2);
        ring.push(3);
        let got = ring.drain();
        assert_eq!(got, vec![2, 3]);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn shared_sink_is_readable_through_either_handle() {
        let shared = SharedSink::new(RingSink::new(4));
        let mut producer = shared.clone();
        producer.emit(Event::instant(7, "e", "test", 0));
        assert_eq!(shared.with(|s| s.events().to_vec()).len(), 1);
        assert_eq!(shared.with(|s| s.events()[0].ts), 7);
    }

    #[test]
    fn ring_sink_keeps_recent_events() {
        let mut sink = RingSink::new(2);
        for t in 0..4u64 {
            sink.emit(Event::instant(t, "e", "test", 0));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 2);
        let ts: Vec<u64> = sink.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3]);
    }
}

//! The event queue driving the simulation.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a point in simulated time.
struct Scheduled<E> {
    at: SimTime,
    /// Tie-breaker preserving FIFO order among same-time events, which
    /// keeps runs fully deterministic.
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic discrete-event simulation loop.
///
/// The protocol layer owns its state and drains events:
///
/// ```
/// use scdb_sim::{Simulation, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping(u32) }
///
/// let mut sim = Simulation::new();
/// sim.schedule_in(SimTime::from_millis(5), Ev::Ping(1));
/// sim.schedule_in(SimTime::from_millis(1), Ev::Ping(2));
/// let (t, e) = sim.next().unwrap();
/// assert_eq!((t, e), (SimTime::from_millis(1), Ev::Ping(2)));
/// assert_eq!(sim.now(), SimTime::from_millis(1));
/// ```
pub struct Simulation<E> {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Scheduled<E>>,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Simulation::new()
    }
}

impl<E> Simulation<E> {
    pub fn new() -> Simulation<E> {
        Simulation {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// Current simulated time (the timestamp of the last event popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time. Events in the past are
    /// clamped to "now" (delivery still happens, never time travel).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled { at, seq, event });
    }

    /// Schedules an event `delay` after now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    /// (Not an `Iterator`: popping advances the simulation clock, and
    /// callers treat it as a stateful scheduler, not a sequence.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let s = self.queue.pop()?;
        debug_assert!(s.at >= self.now, "time must be monotonic");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Peeks at the next event time without consuming it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|s| s.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_millis(30), "c");
        sim.schedule_at(SimTime::from_millis(10), "a");
        sim.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| sim.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut sim = Simulation::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_millis(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| sim.next().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut sim = Simulation::new();
        sim.schedule_in(SimTime::from_millis(7), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.next();
        assert_eq!(sim.now(), SimTime::from_millis(7));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_millis(10), "late");
        sim.next();
        // Scheduling "before now" must not rewind the clock.
        sim.schedule_at(SimTime::from_millis(1), "clamped");
        let (t, e) = sim.next().unwrap();
        assert_eq!(e, "clamped");
        assert_eq!(t, SimTime::from_millis(10));
    }

    #[test]
    fn relative_scheduling_stacks() {
        let mut sim = Simulation::new();
        sim.schedule_in(SimTime::from_millis(5), 1);
        sim.next();
        sim.schedule_in(SimTime::from_millis(5), 2);
        let (t, _) = sim.next().unwrap();
        assert_eq!(t, SimTime::from_millis(10));
    }

    #[test]
    fn peek_and_pending() {
        let mut sim = Simulation::new();
        assert_eq!(sim.peek_time(), None);
        sim.schedule_in(SimTime::from_millis(2), ());
        sim.schedule_in(SimTime::from_millis(1), ());
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(1)));
        sim.next();
        sim.next();
        assert_eq!(sim.peek_time(), None, "nothing left pending");
    }
}

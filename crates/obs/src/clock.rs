//! Swappable time source: wall clock in production, a shared logical
//! microsecond counter under the deterministic simulator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A time source with two implementations behind one interface.
///
/// * [`Clock::wall`] reads the OS monotonic clock relative to an epoch
///   captured at construction. [`Clock::now_s`] keeps full nanosecond
///   precision on this path (sub-microsecond stages must not round to
///   zero), while [`Clock::now_us`] truncates to whole microseconds for
///   event timestamps.
/// * [`Clock::logical`] reads a shared atomic microsecond counter that
///   only moves when [`Clock::advance_to_us`] is called — the
///   discrete-event simulator drives it, so every duration measured
///   through the clock is a pure function of the submission script and
///   metric snapshots are bit-deterministic.
///
/// Clones share the same epoch/counter, so a clock can be handed to
/// many components and their measurements stay on one timeline.
#[derive(Clone, Debug)]
pub struct Clock(Inner);

#[derive(Clone, Debug)]
enum Inner {
    Wall(Instant),
    Logical(Arc<AtomicU64>),
}

impl Clock {
    /// Wall clock with its epoch at the moment of construction.
    pub fn wall() -> Self {
        Clock(Inner::Wall(Instant::now()))
    }

    /// Logical clock starting at 0 µs; advances only via
    /// [`Clock::advance_to_us`].
    pub fn logical() -> Self {
        Clock(Inner::Logical(Arc::new(AtomicU64::new(0))))
    }

    /// Microseconds since the epoch (wall) or the counter value
    /// (logical).
    pub fn now_us(&self) -> u64 {
        match &self.0 {
            Inner::Wall(epoch) => u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
            Inner::Logical(t) => t.load(Ordering::Acquire),
        }
    }

    /// Seconds since the epoch. The wall path keeps nanosecond
    /// precision; the logical path is the counter divided by 10⁶.
    pub fn now_s(&self) -> f64 {
        match &self.0 {
            Inner::Wall(epoch) => epoch.elapsed().as_secs_f64(),
            Inner::Logical(t) => t.load(Ordering::Acquire) as f64 / 1e6,
        }
    }

    /// Advance a logical clock to `t_us` (monotone: the counter never
    /// moves backwards). No-op on a wall clock.
    pub fn advance_to_us(&self, t_us: u64) {
        if let Inner::Logical(t) = &self.0 {
            t.fetch_max(t_us, Ordering::AcqRel);
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::wall()
    }
}

/// Elapsed-time helper over a [`Clock`].
///
/// Replaces the `let t = Instant::now(); ... t.elapsed()` idiom so the
/// same call site works under either clock.
#[derive(Clone, Debug)]
pub struct Stopwatch {
    clock: Clock,
    start_s: f64,
    lap_s: f64,
}

impl Stopwatch {
    /// Start timing against `clock` (shares its timeline).
    pub fn start(clock: &Clock) -> Self {
        let now = clock.now_s();
        Stopwatch { clock: clock.clone(), start_s: now, lap_s: now }
    }

    /// Convenience constructor: a fresh wall clock starting now.
    pub fn wall() -> Self {
        Stopwatch::start(&Clock::wall())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.clock.now_s() - self.start_s
    }

    /// Seconds since the last `lap_s` call (or since start), and reset
    /// the lap point. Lets one stopwatch time consecutive stages.
    pub fn lap_s(&mut self) -> f64 {
        let now = self.clock.now_s();
        let dt = now - self.lap_s;
        self.lap_s = now;
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_subsecond_precise() {
        let c = Clock::wall();
        let a = c.now_s();
        // Burn a little time so the reading must move.
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = c.now_s();
        assert!(b >= a);
        // Nanosecond-precision reading: even a trivial amount of work is
        // visible, so sub-µs stages never round to exactly zero.
        assert!(b > 0.0);
    }

    #[test]
    fn logical_clock_only_moves_when_advanced() {
        let c = Clock::logical();
        assert!(matches!(c.0, Inner::Logical(_)));
        assert_eq!(c.now_us(), 0);
        c.advance_to_us(1500);
        assert_eq!(c.now_us(), 1500);
        assert!((c.now_s() - 0.0015).abs() < 1e-12);
        // Monotone: going "backwards" is ignored.
        c.advance_to_us(100);
        assert_eq!(c.now_us(), 1500);
    }

    #[test]
    fn clones_share_the_timeline() {
        let c = Clock::logical();
        let d = c.clone();
        c.advance_to_us(42);
        assert_eq!(d.now_us(), 42);
    }

    #[test]
    fn stopwatch_laps_partition_the_total() {
        let c = Clock::logical();
        let mut sw = Stopwatch::start(&c);
        c.advance_to_us(1_000_000);
        let l1 = sw.lap_s();
        c.advance_to_us(3_000_000);
        let l2 = sw.lap_s();
        assert!((l1 - 1.0).abs() < 1e-12);
        assert!((l2 - 2.0).abs() < 1e-12);
        assert!((sw.elapsed_s() - 3.0).abs() < 1e-12);
    }
}

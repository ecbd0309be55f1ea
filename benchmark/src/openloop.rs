//! The open-loop, virtual-time scheduler of the churn workload.
//!
//! Events are due on a fixed schedule whatever the service does. The
//! controller ticks every `period` on whatever has become due since the
//! previous tick, so which events share a tick depends only on due times.
//! Time is virtual: an idle gap until the next tick is skipped, while the
//! time a tick keeps the controller busy is its measured wall time. A tick
//! starts at its scheduled time or when the previous tick ends, whichever
//! is later, so one slow tick delays every later event. An event's latency
//! runs from its due time to the end of the tick that applied it.

use std::ops::Range;

/// Due times of `n` events offered at `per_s` events per second: event
/// `i` is due inside its own slot `(i, i+1] / per_s`, at a fixed
/// low-discrepancy offset (golden-ratio sequence), so arrivals are
/// spread evenly across tick phases instead of landing on a tick edge.
pub fn arrivals_ns(n: usize, per_s: f64) -> Vec<u64> {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let slot_ns = 1e9 / per_s;
    (0..n)
        .map(|i| ((i as f64 + 1.0 - (i as f64 * PHI).fract()) * slot_ns) as u64)
        .collect()
}

/// The ticks that serve `due_ns` (ascending): tick `k ≥ 1` is scheduled
/// at `k·period_ns` and batches the events due in
/// `((k−1)·period_ns, k·period_ns]`; tick 0 batches anything due at 0.
/// Ticks with nothing due are skipped.
pub fn ticks(due_ns: &[u64], period_ns: u64) -> Vec<(u64, Range<usize>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < due_ns.len() {
        let k = due_ns[i].div_ceil(period_ns);
        let at = k * period_ns;
        let j = i + due_ns[i..].partition_point(|&d| d <= at);
        out.push((at, i..j));
        i = j;
    }
    out
}

/// Virtual clock of the controller.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    free_at_ns: u64,
    /// Σ (tick start − tick schedule): how long ticks waited behind
    /// earlier, slow ticks.
    pub queue_ns: u64,
}

impl VirtualClock {
    /// Runs a tick scheduled at `at_ns` that kept the controller busy for
    /// `busy_ns`; returns its end time.
    pub fn tick(&mut self, at_ns: u64, busy_ns: u64) -> u64 {
        let start = at_ns.max(self.free_at_ns);
        self.queue_ns += start - at_ns;
        self.free_at_ns = start + busy_ns;
        self.free_at_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves every scheduled tick with `busy(k)` ns of work, returning
    /// the batches served and each event's latency.
    fn drive(due: &[u64], busy: impl Fn(usize) -> u64) -> (Vec<Range<usize>>, Vec<u64>) {
        let mut clock = VirtualClock::default();
        let mut lat = vec![0; due.len()];
        let mut batches = Vec::new();
        for (k, (at, batch)) in ticks(due, 250).into_iter().enumerate() {
            let end = clock.tick(at, busy(k));
            for i in batch.clone() {
                lat[i] = end - due[i];
            }
            batches.push(batch);
        }
        (batches, lat)
    }

    #[test]
    fn batches_depend_only_on_due_times() {
        let due = arrivals_ns(64, 1.6e7); // 4 events per 250 ns tick
        let (fast, _) = drive(&due, |_| 1);
        let (slow, _) = drive(&due, |k| if k % 3 == 0 { 900 } else { 40 });
        assert_eq!(fast, slow);
        assert!(fast.iter().all(|b| !b.is_empty()));
        assert_eq!(fast.iter().map(|b| b.len()).sum::<usize>(), 64);
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        let due = [0, 10, 250, 251, 499, 500];
        let (batches, lat) = drive(&due, |_| 0);
        assert_eq!(batches, vec![0..1, 1..3, 3..6]);
        assert_eq!(lat, vec![0, 240, 0, 249, 1, 0]);
        let (_, lat) = drive(&due, |_| 5);
        assert_eq!(lat, vec![5, 245, 5, 254, 6, 5]);
    }

    #[test]
    fn one_slow_tick_delays_later_events() {
        let due: Vec<u64> = (1..=12).map(|i| i * 62).collect(); // 3 ticks of 4
        let (_, base) = drive(&due, |_| 10);
        let (_, slowed) = drive(&due, |k| if k == 1 { 600 } else { 10 });
        let (b0, b1) = (0..4, 4..8);
        assert_eq!(base[b0.clone()], slowed[b0]);
        for i in b1 {
            assert_eq!(slowed[i], base[i] + 590);
        }
        for i in 8..12 {
            assert!(slowed[i] > base[i], "backlog carries over to event {i}");
        }
        let mut clock = VirtualClock::default();
        clock.tick(250, 600);
        clock.tick(500, 10);
        assert_eq!(clock.queue_ns, 350);
    }

    #[test]
    fn arrivals_keep_the_offered_rate() {
        let due = arrivals_ns(160, 16.0);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(*due.last().unwrap() < 10_000_000_000);
        // Four events per 250 ms tick at 16 events/s.
        assert!(ticks(&due, 250_000_000).iter().all(|(_, b)| b.len() == 4));
    }
}

//! Step-function timelines of monitored quantities.

use relm_common::Millis;
use serde::{Deserialize, Serialize};

/// A time-ordered sequence of samples interpreted as a step function:
/// the value at time `t` is the last sample at or before `t`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline<T> {
    samples: Vec<(Millis, T)>,
}

impl<T> Default for Timeline<T> {
    fn default() -> Self {
        Timeline {
            samples: Vec::new(),
        }
    }
}

impl<T: Copy> Timeline<T> {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty timeline with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Timeline {
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Appends a sample. Samples must be pushed in non-decreasing time
    /// order; out-of-order pushes panic (they indicate a simulator bug).
    pub fn push(&mut self, time: Millis, value: T) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(time >= last, "timeline samples must be time-ordered");
        }
        self.samples.push((time, value));
    }

    /// Appends a sample, clamping its time to keep the timeline monotone.
    /// Use when merging sample streams whose clocks may overlap slightly
    /// (e.g. a replacement container's log appended to its predecessor's).
    pub fn push_clamped(&mut self, time: Millis, value: T) {
        let t = match self.samples.last() {
            Some(&(last, _)) => time.max(last),
            None => time,
        };
        self.samples.push((t, value));
    }

    /// Appends a whole sample log as if by [`Timeline::push_clamped`] on
    /// each sample. An empty timeline adopts the log's buffer and clamps it
    /// in place rather than copying it.
    pub fn extend_clamped(&mut self, samples: Vec<(Millis, T)>) {
        if !self.samples.is_empty() {
            for (t, v) in samples {
                self.push_clamped(t, v);
            }
            return;
        }
        self.samples = samples;
        let mut last: Option<Millis> = None;
        for (t, _) in &mut self.samples {
            if let Some(last) = last {
                *t = t.max(last);
            }
            last = Some(*t);
        }
    }

    /// The value in effect at `time`, or `None` before the first sample.
    pub fn at(&self, time: Millis) -> Option<T> {
        // Binary search for the last sample with sample.time <= time.
        let idx = self.samples.partition_point(|&(t, _)| t <= time);
        if idx == 0 {
            None
        } else {
            Some(self.samples[idx - 1].1)
        }
    }

    /// All samples.
    pub fn samples(&self) -> &[(Millis, T)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over the raw values.
    pub fn values(&self) -> impl Iterator<Item = T> + '_ {
        self.samples.iter().map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_lookup() {
        let mut tl = Timeline::new();
        tl.push(Millis::secs(1.0), 10);
        tl.push(Millis::secs(5.0), 20);
        tl.push(Millis::secs(9.0), 30);
        assert_eq!(tl.at(Millis::ZERO), None);
        assert_eq!(tl.at(Millis::secs(1.0)), Some(10));
        assert_eq!(tl.at(Millis::secs(4.9)), Some(10));
        assert_eq!(tl.at(Millis::secs(5.0)), Some(20));
        assert_eq!(tl.at(Millis::secs(100.0)), Some(30));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut tl = Timeline::new();
        tl.push(Millis::secs(2.0), 1);
        tl.push(Millis::secs(1.0), 2);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut tl = Timeline::new();
        tl.push(Millis::secs(1.0), 1);
        tl.push(Millis::secs(1.0), 2);
        assert_eq!(tl.at(Millis::secs(1.0)), Some(2));
    }

    #[test]
    fn extend_clamped_matches_push_clamped() {
        let log = vec![
            (Millis::secs(3.0), 1),
            (Millis::secs(2.0), 2),
            (Millis::secs(4.0), 3),
            (Millis::secs(1.0), 4),
        ];
        for prefix in [vec![], vec![(Millis::secs(3.5), 0)]] {
            let mut pushed = Timeline::new();
            let mut extended = Timeline::new();
            for &(t, v) in prefix.iter().chain(&log) {
                pushed.push_clamped(t, v);
            }
            for &(t, v) in &prefix {
                extended.push_clamped(t, v);
            }
            extended.extend_clamped(log.clone());
            assert_eq!(pushed, extended);
        }
    }

    #[test]
    fn values_iterator() {
        let mut tl = Timeline::new();
        tl.push(Millis::ZERO, 1.0);
        tl.push(Millis::secs(1.0), 2.0);
        let vs: Vec<f64> = tl.values().collect();
        assert_eq!(vs, vec![1.0, 2.0]);
        assert_eq!(tl.len(), 2);
        assert!(!tl.is_empty());
    }
}

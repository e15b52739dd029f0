//! Accounting for a paced (fixed-schedule) client.
//!
//! A paced request is *due* at `start + index × period` whether or not
//! the client is ready. Its latency is counted from the due time, so a
//! stall that delays the send also shows in the latencies of the
//! requests queued behind it, and how late the generator itself ran is
//! reported beside them.

use std::time::Duration;

/// One paced request, all times as offsets from the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacedSample {
    /// When the schedule wanted the request sent.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its reply was complete.
    pub done: Duration,
}

impl PacedSample {
    /// What the caller waited: reply time minus *due* time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it (zero when on time).
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// A fixed-period schedule.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    period: Duration,
}

impl Pacer {
    /// One request every `period`.
    pub fn new(period: Duration) -> Pacer {
        Pacer { period }
    }

    /// Due time of request `index` (the first is due at zero).
    pub fn due(&self, index: u32) -> Duration {
        self.period * index
    }

    /// How long to sleep at `now` before sending request `index`; zero
    /// when the generator is already behind.
    pub fn wait(&self, index: u32, now: Duration) -> Duration {
        self.due(index).saturating_sub(now)
    }
}

/// Share of samples the generator sent more than `slack` late.
pub fn late_share(samples: &[PacedSample], slack: Duration) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|s| s.lateness() > slack).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn on_time_requests_have_no_lateness() {
        let pacer = Pacer::new(100 * MS);
        assert_eq!(pacer.due(0), Duration::ZERO);
        assert_eq!(pacer.due(3), 300 * MS);
        assert_eq!(pacer.wait(3, 250 * MS), 50 * MS);
        let s = PacedSample {
            due: pacer.due(3),
            sent: pacer.due(3),
            done: 320 * MS,
        };
        assert_eq!(s.lateness(), Duration::ZERO);
        assert_eq!(s.latency(), 20 * MS);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        // Request 1 takes 250 ms, so requests 2 and 3 are sent late;
        // their latency still counts from when they were due.
        let pacer = Pacer::new(100 * MS);
        let slow = PacedSample {
            due: pacer.due(1),
            sent: pacer.due(1),
            done: 350 * MS,
        };
        assert_eq!(pacer.wait(2, slow.done), Duration::ZERO);
        let behind = PacedSample {
            due: pacer.due(2),
            sent: slow.done,
            done: 370 * MS,
        };
        assert_eq!(behind.lateness(), 150 * MS);
        assert_eq!(
            behind.latency(),
            170 * MS,
            "20 ms of service + 150 ms queued"
        );
        let next = PacedSample {
            due: pacer.due(3),
            sent: behind.done,
            done: 390 * MS,
        };
        assert_eq!(next.lateness(), 70 * MS);
        assert_eq!(next.latency(), 90 * MS);
        let all = [slow, behind, next];
        assert!((late_share(&all, MS) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(late_share(&all, 100 * MS), 1.0 / 3.0);
        assert_eq!(late_share(&[], MS), 0.0);
    }
}

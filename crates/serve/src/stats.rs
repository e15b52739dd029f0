//! Lock-free serving counters and a log-scale latency histogram.
//!
//! Every counter is a relaxed atomic: the stats endpoint is an
//! observability surface, not a synchronisation point, and a snapshot
//! that is a few requests stale is fine. The histogram buckets
//! microseconds by powers of two (64 buckets cover 1 us to ~584 000
//! years), which keeps percentile queries O(64) with zero allocation on
//! the record path — the standard trick used by serving systems when a
//! full reservoir would cost more than the request itself.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets.
pub const BUCKETS: usize = 64;

/// A histogram over `u64` microsecond samples, bucketed by bit length.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records an elapsed [`std::time::Duration`], saturating at
    /// `u64::MAX` microseconds. `Duration::as_micros` returns `u128`;
    /// the silent `as u64` truncation this replaces would wrap a
    /// ~584 000-year sample into a small number — never observable from
    /// a real clock, but a histogram must not be the place that wraps.
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one sample.
    pub fn record(&self, us: u64) {
        // Bucket i holds samples whose bit length is i: [2^(i-1), 2^i).
        let bucket = (u64::BITS - us.leading_zeros()) as usize;
        self.buckets[bucket.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The largest sample recorded, microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Mean sample, microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The `q`-quantile (e.g. `0.5`, `0.99`) as the upper bound of the
    /// bucket containing it — an overestimate by at most 2x, which is
    /// the precision/price point of log bucketing. Returns 0 when
    /// empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i (bit length i) is 2^i - 1.
                return if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
            }
        }
        self.max_us()
    }
}

/// Shared serving counters: admission, outcomes, and latency.
///
/// The server owns admission, latency and outcome accounting: it counts
/// every status it writes, the 4xx it answers itself (oversized body,
/// malformed HTTP, read deadline) included. The handler owns
/// per-endpoint accounting (it knows the routes) and reads this struct
/// so `GET /stats` reports one coherent place.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted by the listener.
    pub accepted: AtomicU64,
    /// Requests and connections turned away at admission: 503 + retry
    /// hint for a full queue or a socket over the connection limit,
    /// plus sockets dropped past the reject reserve.
    pub rejected_busy: AtomicU64,
    /// Requests currently admitted but not yet answered.
    pub in_flight: AtomicU64,
    /// Responses written, by coarse class.
    pub ok_responses: AtomicU64,
    /// 4xx responses written (bad requests of any kind).
    pub client_errors: AtomicU64,
    /// 5xx responses written (excluding admission 503s).
    pub server_errors: AtomicU64,
    /// Requests that died before a response could be written (peer
    /// vanished, socket error).
    pub dropped: AtomicU64,
    /// Requests served beyond the first on their connection — the
    /// keep-alive payoff (`reused / latency.count()` approximates the
    /// connection-reuse rate).
    pub reused: AtomicU64,
    /// End-to-end service latency (admission to response written).
    pub latency: LatencyHistogram,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: LatencyHistogram,
}

impl ServeStats {
    /// Fresh zeroed counters.
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// Classifies a written response's status into the outcome
    /// counters.
    pub fn count_status(&self, status: u16) {
        match status {
            200..=299 => self.ok_responses.fetch_add(1, Ordering::Relaxed),
            400..=499 => self.client_errors.fetch_add(1, Ordering::Relaxed),
            _ => self.server_errors.fetch_add(1, Ordering::Relaxed),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = LatencyHistogram::new();
        for us in [1u64, 2, 3, 4, 100, 1000] {
            h.record(us);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_us(), 1000);
        // p50 falls in the bucket holding 2 and 3 -> upper bound 3.
        assert_eq!(h.quantile_us(0.5), 3);
        // p99 falls in the bucket holding 1000 -> upper bound 1023.
        assert_eq!(h.quantile_us(0.99), 1023);
        assert_eq!(h.mean_us(), (1 + 2 + 3 + 4 + 100 + 1000) / 6);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0);
    }

    #[test]
    fn extreme_samples_do_not_panic() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
        // The zero sample lands in bucket 0 whose upper bound is 0.
        assert_eq!(h.quantile_us(0.01), 0);
    }

    #[test]
    fn duration_recording_saturates_instead_of_truncating() {
        use std::time::Duration;
        let h = LatencyHistogram::new();
        // A duration whose microsecond count exceeds u64 (u128 range):
        // the old `as u64` cast would wrap this to 0xFFFF_FFFF_FFFF_FFFE
        // & friends or worse, a tiny number; saturation pins it to MAX.
        h.record_duration(Duration::MAX);
        assert_eq!(h.max_us(), u64::MAX);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
        // A zero-length duration lands in bucket 0 (upper bound 0), not
        // in a panic or an off-by-one bucket.
        h.record_duration(Duration::ZERO);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_us(0.01), 0);
        // Sanity: a normal duration records its microsecond count.
        h.record_duration(Duration::from_micros(100));
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile_us(0.5), 127); // bucket upper bound for 100
    }

    #[test]
    fn status_classification() {
        let s = ServeStats::new();
        s.count_status(200);
        s.count_status(400);
        s.count_status(404);
        s.count_status(500);
        assert_eq!(s.ok_responses.load(Ordering::Relaxed), 1);
        assert_eq!(s.client_errors.load(Ordering::Relaxed), 2);
        assert_eq!(s.server_errors.load(Ordering::Relaxed), 1);
    }
}

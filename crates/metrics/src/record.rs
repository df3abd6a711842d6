//! Per-request lifecycle records and aggregate SLO / throughput metrics.

use ffs_sim::{SimDuration, SimTime};

/// Where a request's end-to-end latency went (Figure 14's breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Waiting in queues (controller, load balancer, instance, stage).
    pub queue_ms: f64,
    /// Waiting for model loads (warm reload after eviction, cold start).
    pub load_ms: f64,
    /// Executing on MIG slices.
    pub exec_ms: f64,
    /// Moving tensors across pipeline-stage boundaries (or in-process
    /// handoffs for monolithic instances).
    pub transfer_ms: f64,
}

impl Breakdown {
    /// Total accounted latency.
    pub fn total_ms(&self) -> f64 {
        self.queue_ms + self.load_ms + self.exec_ms + self.transfer_ms
    }
}

/// One completed (or dropped) request.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// Trace-wide request id.
    pub id: u64,
    /// Index of the application (paper's App 0–3).
    pub app_index: usize,
    /// Arrival at the platform.
    pub arrival: SimTime,
    /// Completion time; `None` for requests dropped or still in flight at
    /// the end of the run (both count as SLO misses).
    pub completed: Option<SimTime>,
    /// The SLO latency budget for this request.
    pub slo_ms: f64,
    /// Latency breakdown.
    pub breakdown: Breakdown,
    /// Owning tenant (fairness accounting).
    pub tenant: u32,
}

impl RequestRecord {
    /// End-to-end latency in ms, if completed.
    pub fn latency_ms(&self) -> Option<f64> {
        self.completed
            .map(|c| c.saturating_since(self.arrival).as_secs_f64() * 1_000.0)
    }

    /// True if the request completed within its SLO.
    pub fn slo_hit(&self) -> bool {
        match self.latency_ms() {
            Some(l) => l <= self.slo_ms,
            None => false,
        }
    }
}

/// Append-only log of request records with aggregate queries.
#[derive(Clone, Debug, Default)]
pub struct RequestLog {
    records: Vec<RequestRecord>,
}

impl RequestLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record. A completion that precedes its own arrival is an
    /// event-ordering bug: `latency_ms` would silently clamp it to zero, so
    /// it is counted against the process-wide metric-clamp counter here
    /// (once per record, not once per latency query).
    pub fn push(&mut self, r: RequestRecord) {
        if let Some(c) = r.completed {
            if c < r.arrival {
                debug_assert!(false, "request {} completed before it arrived", r.id);
                ffs_obs::note_metric_clamp();
            }
        }
        self.records.push(r);
    }

    /// Pre-sizes the log for `n` additional records, so a run with a known
    /// request count never reallocates on the completion path.
    pub fn reserve(&mut self, n: usize) {
        self.records.reserve(n);
    }

    /// All records.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records for one application.
    pub fn for_app(&self, app_index: usize) -> impl Iterator<Item = &RequestRecord> {
        self.records
            .iter()
            .filter(move |r| r.app_index == app_index)
    }

    /// Records for one tenant.
    pub fn for_tenant(&self, tenant: u32) -> impl Iterator<Item = &RequestRecord> {
        self.records.iter().filter(move |r| r.tenant == tenant)
    }

    /// The distinct tenants appearing in the log, ascending.
    pub fn tenants(&self) -> Vec<u32> {
        let mut t: Vec<u32> = self.records.iter().map(|r| r.tenant).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// SLO hit rate for one tenant (vacuous 1.0 when the tenant has no
    /// records, mirroring [`Self::slo_hit_rate_for`]).
    pub fn slo_hit_rate_for_tenant(&self, tenant: u32) -> f64 {
        let (hits, total) = self.for_tenant(tenant).fold((0usize, 0usize), |(h, t), r| {
            (h + usize::from(r.slo_hit()), t + 1)
        });
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Completed requests per second for one tenant over `duration`.
    pub fn throughput_rps_for_tenant(&self, tenant: u32, duration: SimDuration) -> f64 {
        let done = self
            .for_tenant(tenant)
            .filter(|r| r.completed.is_some())
            .count();
        done as f64 / duration.as_secs_f64()
    }

    /// Completed-request latencies for one tenant.
    pub fn latencies_ms_for_tenant(&self, tenant: u32) -> Vec<f64> {
        self.for_tenant(tenant)
            .filter_map(|r| r.latency_ms())
            .collect()
    }

    /// Fraction of requests completed within their SLO (Figure 9). Unfilled
    /// requests count as misses. Returns 1.0 for an empty log.
    pub fn slo_hit_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.slo_hit()).count() as f64 / self.records.len() as f64
    }

    /// SLO hit rate for one app.
    pub fn slo_hit_rate_for(&self, app_index: usize) -> f64 {
        let (hits, total) = self.for_app(app_index).fold((0usize, 0usize), |(h, t), r| {
            (h + usize::from(r.slo_hit()), t + 1)
        });
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Completed requests per second over `duration` (Figure 10's
    /// throughput).
    pub fn throughput_rps(&self, duration: SimDuration) -> f64 {
        let done = self
            .records
            .iter()
            .filter(|r| r.completed.is_some())
            .count();
        done as f64 / duration.as_secs_f64()
    }

    /// Completed-request latencies in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.latency_ms()).collect()
    }

    /// Completed-request latencies for one app.
    pub fn latencies_ms_for(&self, app_index: usize) -> Vec<f64> {
        self.for_app(app_index)
            .filter_map(|r| r.latency_ms())
            .collect()
    }

    /// Mean breakdown over completed requests (Figure 14), per app.
    pub fn mean_breakdown_for(&self, app_index: usize) -> Breakdown {
        let mut acc = Breakdown::default();
        let mut n = 0usize;
        for r in self.for_app(app_index) {
            if r.completed.is_some() {
                acc.queue_ms += r.breakdown.queue_ms;
                acc.load_ms += r.breakdown.load_ms;
                acc.exec_ms += r.breakdown.exec_ms;
                acc.transfer_ms += r.breakdown.transfer_ms;
                n += 1;
            }
        }
        if n > 0 {
            let k = n as f64;
            acc.queue_ms /= k;
            acc.load_ms /= k;
            acc.exec_ms /= k;
            acc.transfer_ms /= k;
        }
        acc
    }

    /// Completion time of the last finished request (for the "finishes all
    /// tasks X% faster" comparison of §7.2).
    pub fn makespan(&self) -> Option<SimTime> {
        self.records.iter().filter_map(|r| r.completed).max()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn record(
        id: u64,
        app: usize,
        arrival_s: u64,
        latency_ms: Option<f64>,
        slo_ms: f64,
    ) -> RequestRecord {
        let arrival = SimTime::from_secs(arrival_s);
        RequestRecord {
            id,
            app_index: app,
            arrival,
            completed: latency_ms.map(|l| arrival + SimDuration::from_millis_f64(l)),
            slo_ms,
            tenant: app as u32,
            breakdown: Breakdown {
                queue_ms: 10.0,
                load_ms: 0.0,
                exec_ms: latency_ms.unwrap_or(0.0).max(10.0) - 10.0,
                transfer_ms: 0.0,
            },
        }
    }

    #[test]
    fn slo_hit_accounting() {
        let mut log = RequestLog::new();
        log.push(record(0, 0, 0, Some(100.0), 150.0)); // hit
        log.push(record(1, 0, 1, Some(200.0), 150.0)); // miss
        log.push(record(2, 0, 2, None, 150.0)); // dropped: miss
        log.push(record(3, 1, 3, Some(149.9), 150.0)); // hit
        assert!((log.slo_hit_rate() - 0.5).abs() < 1e-12);
        assert!((log.slo_hit_rate_for(0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(log.slo_hit_rate_for(1), 1.0);
        assert_eq!(log.slo_hit_rate_for(9), 1.0, "no records = vacuous 1.0");
    }

    #[test]
    fn throughput_counts_only_completed() {
        let mut log = RequestLog::new();
        log.push(record(0, 0, 0, Some(50.0), 100.0));
        log.push(record(1, 0, 0, None, 100.0));
        assert!((log.throughput_rps(SimDuration::from_secs(10)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn latency_and_makespan() {
        let mut log = RequestLog::new();
        log.push(record(0, 0, 0, Some(100.0), 150.0));
        log.push(record(1, 0, 5, Some(300.0), 150.0));
        let lats = log.latencies_ms();
        assert_eq!(lats.len(), 2);
        assert!((lats[1] - 300.0).abs() < 1e-9);
        assert_eq!(
            log.makespan().unwrap(),
            SimTime::from_secs(5) + SimDuration::from_millis(300)
        );
    }

    #[test]
    fn mean_breakdown_averages_completed_only() {
        let mut log = RequestLog::new();
        log.push(record(0, 2, 0, Some(110.0), 500.0));
        log.push(record(1, 2, 0, Some(210.0), 500.0));
        log.push(record(2, 2, 0, None, 500.0));
        let b = log.mean_breakdown_for(2);
        assert!((b.queue_ms - 10.0).abs() < 1e-12);
        assert!((b.exec_ms - 150.0).abs() < 1e-12);
        assert!((b.total_ms() - 160.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log_is_benign() {
        let log = RequestLog::new();
        assert_eq!(log.slo_hit_rate(), 1.0);
        assert!(log.latencies_ms().is_empty());
        assert!(log.makespan().is_none());
        assert_eq!(log.throughput_rps(SimDuration::from_secs(1)), 0.0);
    }
}

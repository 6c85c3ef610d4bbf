//! Server statistics: always-on relaxed atomics plus a JSON snapshot.
//!
//! These are the server's only counters. Each
//! [`Server`](crate::Server) owns its own set (nothing is process-wide),
//! the STATS frame carries their [`StatsSnapshot`], and the acceptance
//! gate reconciles them against client-observed outcomes (every
//! submitted frame gets exactly one terminal response, and `accepted +
//! shed + refusals` must cover every SUBMIT seen).

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets of the admission queue-depth histogram (depth `0..15`,
/// deeper clamps into the last bucket).
pub const QUEUE_DEPTH_BUCKETS: usize = 16;

/// Process-lifetime counters of one [`Server`](crate::Server). All
/// increments are relaxed — the numbers are monotonic totals, not a
/// synchronization protocol.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// SUBMIT frames admitted past the admission gate.
    pub accepted: AtomicU64,
    /// SUBMIT frames refused with a SHED response.
    pub shed: AtomicU64,
    /// Requests cut off by their deadline at a chunk boundary.
    pub deadline: AtomicU64,
    /// Engine-level retries after a contained evaluation panic.
    pub retries: AtomicU64,
    /// Rows quarantined (NaN-poisoned) by the robust ladder.
    pub quarantined_rows: AtomicU64,
    /// RESULT frames sent.
    pub results: AtomicU64,
    /// ERROR frames answering an *admitted* SUBMIT (SV003: parse or
    /// compile refusals, containment failure). Part of the ledger:
    /// `accepted == results + deadline + errors` after drain.
    pub errors: AtomicU64,
    /// ERROR frames sent before admission: undecodable bytes (SV001 /
    /// SV002), response-typed frames, and SUBMITs refused while
    /// draining (SV006). Outside the admission ledger by construction.
    pub refusals: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connection handlers that panicked and were contained.
    pub panics_contained: AtomicU64,
    /// Connections closed for exceeding the per-connection rate limit.
    pub rate_limited: AtomicU64,
    /// Admission-queue depth observed at each SUBMIT.
    pub queue_depth: [AtomicU64; QUEUE_DEPTH_BUCKETS],
}

/// A plain-value copy of [`ServeStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServeStats::accepted`].
    pub accepted: u64,
    /// See [`ServeStats::shed`].
    pub shed: u64,
    /// See [`ServeStats::deadline`].
    pub deadline: u64,
    /// See [`ServeStats::retries`].
    pub retries: u64,
    /// See [`ServeStats::quarantined_rows`].
    pub quarantined_rows: u64,
    /// See [`ServeStats::results`].
    pub results: u64,
    /// See [`ServeStats::errors`].
    pub errors: u64,
    /// See [`ServeStats::refusals`].
    pub refusals: u64,
    /// See [`ServeStats::connections`].
    pub connections: u64,
    /// See [`ServeStats::panics_contained`].
    pub panics_contained: u64,
    /// See [`ServeStats::rate_limited`].
    pub rate_limited: u64,
    /// See [`ServeStats::queue_depth`].
    pub queue_depth: [u64; QUEUE_DEPTH_BUCKETS],
}

impl ServeStats {
    /// Record the admission-queue depth observed at one SUBMIT.
    pub fn record_queue_depth(&self, depth: usize) {
        self.queue_depth[depth.min(QUEUE_DEPTH_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut queue_depth = [0u64; QUEUE_DEPTH_BUCKETS];
        for (o, b) in queue_depth.iter_mut().zip(self.queue_depth.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline: self.deadline.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined_rows: self.quarantined_rows.load(Ordering::Relaxed),
            results: self.results.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            refusals: self.refusals.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            queue_depth,
        }
    }
}

impl StatsSnapshot {
    /// Render as a flat JSON object (hand-rolled: the workspace builds
    /// offline, with no serde).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self.queue_depth.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"accepted\":{},\"shed\":{},\"deadline\":{},\"retries\":{},",
                "\"quarantined_rows\":{},\"results\":{},\"errors\":{},\"refusals\":{},",
                "\"connections\":{},\"panics_contained\":{},\"rate_limited\":{},",
                "\"queue_depth\":[{}]}}"
            ),
            self.accepted,
            self.shed,
            self.deadline,
            self.retries,
            self.quarantined_rows,
            self.results,
            self.errors,
            self.refusals,
            self.connections,
            self.panics_contained,
            self.rate_limited,
            buckets.join(",")
        )
    }

    /// Parse the exact document [`StatsSnapshot::to_json`] produces
    /// (clients use this to read STATS responses; it is not a general
    /// JSON parser).
    pub fn from_json(s: &str) -> Option<StatsSnapshot> {
        let field = |name: &str| -> Option<u64> {
            let key = format!("\"{name}\":");
            let at = s.find(&key)? + key.len();
            let rest = &s[at..];
            let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        };
        let mut queue_depth = [0u64; QUEUE_DEPTH_BUCKETS];
        let qk = "\"queue_depth\":[";
        let qa = s.find(qk)? + qk.len();
        let qb = s[qa..].find(']')? + qa;
        for (i, tok) in s[qa..qb].split(',').enumerate() {
            if i < QUEUE_DEPTH_BUCKETS {
                queue_depth[i] = tok.trim().parse().ok()?;
            }
        }
        Some(StatsSnapshot {
            accepted: field("accepted")?,
            shed: field("shed")?,
            deadline: field("deadline")?,
            retries: field("retries")?,
            quarantined_rows: field("quarantined_rows")?,
            results: field("results")?,
            errors: field("errors")?,
            refusals: field("refusals")?,
            connections: field("connections")?,
            panics_contained: field("panics_contained")?,
            rate_limited: field("rate_limited")?,
            queue_depth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_round_trips() {
        let st = ServeStats::default();
        st.accepted.fetch_add(17, Ordering::Relaxed);
        st.shed.fetch_add(3, Ordering::Relaxed);
        st.quarantined_rows.fetch_add(9, Ordering::Relaxed);
        st.record_queue_depth(0);
        st.record_queue_depth(2);
        st.record_queue_depth(999); // clamps into the last bucket
        let snap = st.snapshot();
        assert_eq!(snap.queue_depth[0], 1);
        assert_eq!(snap.queue_depth[2], 1);
        assert_eq!(snap.queue_depth[QUEUE_DEPTH_BUCKETS - 1], 1);
        let json = snap.to_json();
        assert_eq!(StatsSnapshot::from_json(&json), Some(snap));
    }
}

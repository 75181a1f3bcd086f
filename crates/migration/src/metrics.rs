//! Migration metrics — the quantities the paper's evaluation reports.
//!
//! Total migration time (Fig. 7, Table II), amount of data transferred on
//! the migration channel (Fig. 8, Table III), downtime, and the per-path
//! page counts that explain them.

use agile_sim_core::{SimDuration, SimTime};
use agile_trace::{MetricsRegistry, PhaseKind, PhasePoint};

/// Which migration technique ran.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Technique {
    /// Iterative pre-copy (the KVM/QEMU default).
    PreCopy,
    /// Post-copy with active push + demand paging.
    PostCopy,
    /// The paper's hybrid: one live round, swapped pages by reference.
    Agile,
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Technique::PreCopy => "pre-copy",
            Technique::PostCopy => "post-copy",
            Technique::Agile => "agile",
        })
    }
}

/// Counters and timestamps for one migration.
#[derive(Clone, Debug)]
pub struct MigrationMetrics {
    /// Technique used.
    pub technique: Technique,
    /// Migration start.
    pub started_at: SimTime,
    /// VM suspension instant (end of live phase).
    pub suspended_at: Option<SimTime>,
    /// VM resumption at the destination.
    pub resumed_at: Option<SimTime>,
    /// All state transferred; source released.
    pub completed_at: Option<SimTime>,

    /// Bytes put on the migration TCP connection (chunks + handoff).
    pub migration_bytes: u64,
    /// Full pages sent (all paths: rounds, stop-and-copy, push, demand).
    pub pages_sent_full: u64,
    /// Swap-offset markers sent instead of pages (Agile).
    pub pages_sent_as_offsets: u64,
    /// Zero-page markers sent.
    pub pages_sent_zero: u64,
    /// Pages re-sent because they were dirtied (pre-copy rounds ≥ 2 and
    /// stop-and-copy, or Agile/post-copy push of re-dirtied pages).
    pub pages_retransmitted: u64,
    /// Pages the Migration Manager had to swap in before sending.
    pub pages_swapped_in_for_transfer: u64,
    /// Pages served to the destination on demand (from the source).
    pub pages_demand_from_source: u64,
    /// Pre-copy rounds completed (live rounds only).
    pub rounds: u32,
    /// Pages in the post-suspension pass: the stop-and-copy set for
    /// pre-copy, the push set for post-copy/Agile. Stamped at suspension.
    pub push_set_pages: u64,
    /// Counter snapshots taken at every phase entry (including the
    /// `Aborted` marker a connection-drop retry leaves behind). The
    /// substrate of the exported phase timeline.
    pub phase_log: Vec<PhasePoint>,
}

impl MigrationMetrics {
    /// Fresh metrics at migration start.
    pub fn new(technique: Technique, started_at: SimTime) -> Self {
        MigrationMetrics {
            technique,
            started_at,
            suspended_at: None,
            resumed_at: None,
            completed_at: None,
            migration_bytes: 0,
            pages_sent_full: 0,
            pages_sent_as_offsets: 0,
            pages_sent_zero: 0,
            pages_retransmitted: 0,
            pages_swapped_in_for_transfer: 0,
            pages_demand_from_source: 0,
            rounds: 0,
            push_set_pages: 0,
            phase_log: Vec::new(),
        }
    }

    /// Append a phase-entry snapshot of the cumulative counters.
    pub fn record_phase(&mut self, at: SimTime, phase: PhaseKind, round: u32) {
        self.phase_log.push(PhasePoint {
            at,
            phase,
            round,
            migration_bytes: self.migration_bytes,
            pages_sent_full: self.pages_sent_full,
            pages_sent_as_offsets: self.pages_sent_as_offsets,
            pages_sent_zero: self.pages_sent_zero,
            pages_retransmitted: self.pages_retransmitted,
            pages_swapped_in_for_transfer: self.pages_swapped_in_for_transfer,
            pages_demand_from_source: self.pages_demand_from_source,
        });
    }

    /// Publish every counter into `reg` under `prefix` (e.g. `mig0.`),
    /// replacing the ad-hoc per-field reporting with the typed registry.
    pub fn publish_to(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}migration_bytes"), self.migration_bytes);
        reg.set_counter(&format!("{prefix}pages_sent_full"), self.pages_sent_full);
        reg.set_counter(
            &format!("{prefix}pages_sent_as_offsets"),
            self.pages_sent_as_offsets,
        );
        reg.set_counter(&format!("{prefix}pages_sent_zero"), self.pages_sent_zero);
        reg.set_counter(
            &format!("{prefix}pages_retransmitted"),
            self.pages_retransmitted,
        );
        reg.set_counter(
            &format!("{prefix}pages_swapped_in_for_transfer"),
            self.pages_swapped_in_for_transfer,
        );
        reg.set_counter(
            &format!("{prefix}pages_demand_from_source"),
            self.pages_demand_from_source,
        );
        reg.set_counter(&format!("{prefix}rounds"), u64::from(self.rounds));
        reg.set_counter(&format!("{prefix}push_set_pages"), self.push_set_pages);
        if let Some(d) = self.downtime() {
            reg.observe(&format!("{prefix}downtime"), d);
        }
        if let Some(d) = self.total_time() {
            reg.observe(&format!("{prefix}total_time"), d);
        }
    }

    /// Total migration time (start → source released). `None` while the
    /// migration is in flight.
    pub fn total_time(&self) -> Option<SimDuration> {
        self.completed_at
            .map(|t| t.saturating_since(self.started_at))
    }

    /// Downtime: suspension → resumption at the destination.
    pub fn downtime(&self) -> Option<SimDuration> {
        match (self.suspended_at, self.resumed_at) {
            (Some(s), Some(r)) => Some(r.saturating_since(s)),
            _ => None,
        }
    }

    /// [`Self::total_time`] in seconds; NaN while the migration is in
    /// flight.
    pub fn total_secs(&self) -> f64 {
        self.total_time().map_or(f64::NAN, |d| d.as_secs_f64())
    }

    /// [`Self::downtime`] in seconds; NaN until the VM has resumed.
    pub fn downtime_secs(&self) -> f64 {
        self.downtime().map_or(f64::NAN, |d| d.as_secs_f64())
    }

    /// Time the VM executed at the source while migrating (live phase).
    pub fn live_phase(&self) -> Option<SimDuration> {
        self.suspended_at
            .map(|t| t.saturating_since(self.started_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_timing() {
        let mut m = MigrationMetrics::new(Technique::Agile, SimTime::from_secs(10));
        assert_eq!(m.total_time(), None);
        assert_eq!(m.downtime(), None);
        m.suspended_at = Some(SimTime::from_secs(40));
        m.resumed_at = Some(SimTime::from_millis(40_200));
        m.completed_at = Some(SimTime::from_secs(118));
        assert_eq!(m.total_time(), Some(SimDuration::from_secs(108)));
        assert_eq!(m.downtime(), Some(SimDuration::from_millis(200)));
        assert_eq!(m.live_phase(), Some(SimDuration::from_secs(30)));
    }

    #[test]
    fn technique_display() {
        assert_eq!(Technique::PreCopy.to_string(), "pre-copy");
        assert_eq!(Technique::PostCopy.to_string(), "post-copy");
        assert_eq!(Technique::Agile.to_string(), "agile");
    }
}

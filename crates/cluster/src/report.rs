//! Result extraction and analysis helpers for the paper's figures/tables.

use agile_sim_core::{SimTime, ThroughputMeter};

use crate::world::World;

/// Throughput time series averaged across a set of VMs (the y-axis of
/// Figures 4–6): per-second mean completions/s per VM.
pub fn average_throughput_series(world: &World, vms: &[usize]) -> Vec<(u64, f64)> {
    assert!(!vms.is_empty());
    let meters: Vec<&ThroughputMeter> = vms.iter().map(|&v| &world.vms[v].meter).collect();
    let merged = ThroughputMeter::merged(&meters);
    merged
        .rates()
        .into_iter()
        .map(|(t, r)| (t, r / vms.len() as f64))
        .collect()
}

/// Mean per-VM throughput over `[from, to)` seconds (Table I).
pub fn average_throughput_in_window(world: &World, vms: &[usize], from: u64, to: u64) -> f64 {
    assert!(!vms.is_empty());
    let total: f64 = vms
        .iter()
        .map(|&v| world.vms[v].meter.rate_in_window(from, to))
        .sum();
    total / vms.len() as f64
}

/// First time after `after` at which the smoothed (window `smooth` s)
/// average throughput across `vms` recovers to `fraction` of `reference`.
/// Returns seconds since t = 0, or `None` if it never recovers.
pub fn recovery_time(
    world: &World,
    vms: &[usize],
    after: SimTime,
    reference: f64,
    fraction: f64,
    smooth: u64,
) -> Option<u64> {
    let series = average_throughput_series(world, vms);
    if series.is_empty() {
        return None;
    }
    let target = reference * fraction;
    let start = after.as_secs();
    let last = series.last().map(|(t, _)| *t).unwrap_or(0);
    for t in start..last.saturating_sub(smooth) {
        let window: Vec<f64> = series
            .iter()
            .filter(|(s, _)| *s >= t && *s < t + smooth)
            .map(|(_, r)| *r)
            .collect();
        if window.is_empty() {
            continue;
        }
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        if mean >= target {
            return Some(t);
        }
    }
    None
}

/// Fold migration `mig`'s phase log, source totals, and destination
/// counters into the exportable [`agile_trace::PhaseTimeline`].
pub fn phase_timeline(
    world: &World,
    mig: usize,
    scenario: &str,
    seed: u64,
) -> agile_trace::PhaseTimeline {
    let m = &world.migrations[mig];
    let met = m.src.metrics();
    agile_trace::PhaseTimeline {
        scenario: scenario.to_string(),
        technique: met.technique.to_string(),
        seed,
        rounds: met.rounds,
        retries: m.retries,
        downtime_ns: met.downtime().map(|d| d.as_nanos()),
        total_ns: met.total_time().map(|d| d.as_nanos()),
        live_ns: met.live_phase().map(|d| d.as_nanos()),
        push_set_pages: met.push_set_pages,
        migration_bytes: met.migration_bytes,
        pages_sent_full: met.pages_sent_full,
        pages_sent_as_offsets: met.pages_sent_as_offsets,
        pages_sent_zero: met.pages_sent_zero,
        pages_retransmitted: met.pages_retransmitted,
        pages_swapped_in_for_transfer: met.pages_swapped_in_for_transfer,
        pages_demand_from_source: met.pages_demand_from_source,
        dest_pages_installed_stream: m.dst.pages_installed_stream,
        dest_pages_faulted_from_swap: m.dst.pages_faulted_from_swap,
        dest_pages_faulted_from_source: m.dst.pages_faulted_from_source,
        dest_duplicate_pages_ignored: m.dst.duplicate_pages_ignored,
        dest_pages_discarded_at_resume: m.dst.pages_discarded_at_resume,
        phases: met.phase_log.clone(),
    }
}

/// Publish every migration's counters (prefixed `mig<i>.`) plus the
/// chaos-recovery totals into a typed [`agile_trace::MetricsRegistry`] —
/// the structured replacement for ad-hoc per-field result structs.
pub fn metrics_registry(world: &World) -> agile_trace::MetricsRegistry {
    let mut reg = agile_trace::MetricsRegistry::new();
    for (i, m) in world.migrations.iter().enumerate() {
        m.src.metrics().publish_to(&mut reg, &format!("mig{i}."));
        reg.set_counter(&format!("mig{i}.retries"), u64::from(m.retries));
        reg.set_counter(
            &format!("mig{i}.pages_lost_on_conn_drop"),
            m.pages_lost_on_conn_drop,
        );
        reg.set_counter(
            &format!("mig{i}.dest_pages_installed_stream"),
            m.dst.pages_installed_stream,
        );
        reg.set_counter(
            &format!("mig{i}.dest_pages_faulted_from_swap"),
            m.dst.pages_faulted_from_swap,
        );
        reg.set_counter(
            &format!("mig{i}.dest_pages_faulted_from_source"),
            m.dst.pages_faulted_from_source,
        );
    }
    reg.set_counter("chaos.conn_drops", world.chaos.conn_drops);
    reg.set_counter("chaos.lost_reads", world.chaos.lost_reads);
    reg.set_counter("chaos.slots_repaired", world.chaos.slots_repaired);
    reg.set_counter("chaos.slots_lost", world.chaos.total_slots_lost());
    // WSS estimator rows only when the simulated-PML machinery ran:
    // legacy (swap-I/O-only) metrics JSON stays byte-identical.
    if world.wss_counters.epoch_drains > 0 {
        reg.set_counter("wss.samples", world.wss_counters.samples);
        reg.set_counter("wss.epoch_drains", world.wss_counters.epoch_drains);
        reg.set_counter("wss.pml_overflows", world.wss_counters.pml_overflows);
    }
    if let Some(s) = &world.sched {
        reg.set_counter("sched.started", s.counters.started);
        reg.set_counter("sched.queued", s.counters.queued);
        reg.set_counter("sched.deferred_no_dest", s.counters.deferred_no_dest);
        reg.set_counter("sched.dropped_recovered", s.counters.dropped_recovered);
        reg.set_counter("sched.completed", s.counters.completed);
        reg.set_counter("sched.max_in_flight", s.counters.max_in_flight_observed);
        if let Some(p) = &s.predict {
            reg.set_counter("sched.predict.cycles_detected", p.counters.cycles_detected);
            reg.set_counter("sched.predict.deferrals", p.counters.deferrals);
            reg.set_counter("sched.predict.window_expiries", p.counters.window_expiries);
            reg.set_counter("sched.predict.trough_hits", p.counters.trough_hits);
            reg.set_counter("sched.predict.trough_misses", p.counters.trough_misses);
            reg.set_counter("sched.predict.cancelled", p.counters.cancelled);
        }
    }
    if let Some(wl) = &world.wldrv {
        reg.set_counter("wl.ticks", wl.counters.ticks);
        reg.set_counter("wl.actions", wl.counters.actions);
    }
    if let Some(c) = &world.clone {
        reg.set_counter("clone.forks", c.counters.forks);
        reg.set_counter("clone.spawned", c.counters.spawned);
        reg.set_counter("clone.ready", c.counters.ready);
        reg.set_counter("clone.torn_down", c.counters.torn_down);
        reg.set_counter("clone.cow_breaks", c.counters.cow_breaks);
        reg.set_counter("clone.hydrated_pages", c.counters.hydrated_pages);
    }
    if let Some(p) = &world.pool {
        reg.set_counter("pool.leases_shrunk", p.counters.leases_shrunk);
        reg.set_counter("pool.leases_grown", p.counters.leases_grown);
        reg.set_counter("pool.pages_relocated", p.counters.pages_relocated);
        reg.set_counter("pool.pages_demoted", p.counters.pages_demoted);
        reg.set_counter("pool.relocations_aborted", p.counters.relocations_aborted);
        reg.set_counter("pool.rebalance_moves", p.counters.rebalance_moves);
        reg.set_counter("pool.throttled_flushes", p.counters.throttled_flushes);
        reg.set_counter("pool.deferred_shrinks", p.counters.deferred_shrinks);
        reg.set_gauge("pool.pressure", crate::poolctl::pressure(world));
        reg.set_gauge("pool.spread", crate::poolctl::spread(world));
        reg.set_gauge(
            "pool.leased_free_pages",
            crate::poolctl::leased_free_pages(world) as f64,
        );
    }
    reg
}

/// Render a `(seconds, value)` series as CSV.
pub fn series_to_csv(header: &str, series: &[(u64, f64)]) -> String {
    let mut s = String::with_capacity(series.len() * 12 + header.len() + 1);
    s.push_str(header);
    s.push('\n');
    for (t, v) in series {
        s.push_str(&format!("{t},{v:.2}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_to_csv_renders() {
        let csv = series_to_csv("t,v", &[(0, 1.0), (5, 2.25)]);
        assert_eq!(csv, "t,v\n0,1.00\n5,2.25\n");
    }
}

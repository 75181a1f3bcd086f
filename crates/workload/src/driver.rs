//! Sans-IO temporal workload driver.
//!
//! A [`WorkloadDriver`] owns a set of [`Binding`]s — each a `(vm, knob,
//! signal)` triple — and, when polled at a simulated instant, reports
//! which knobs changed value since the previous poll. It performs no IO
//! and schedules nothing itself: the cluster executor ticks it as an
//! ordinary DES event and applies the emitted [`Action`]s to the world
//! (reservation resizes, think-time changes, active-window moves).
//!
//! The byte-identity contract lives here: bindings whose signal is
//! structurally constant are applied **once** when the driver is armed
//! and then never touched again, and a driver whose bindings are *all*
//! constant reports [`WorkloadDriver::is_static`], in which case the
//! executor installs **zero** events — legacy traces replay
//! byte-identically.

use agile_sim_core::time::SimTime;

use crate::signal::Signal;

/// Which scalar knob a signal drives on its target VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Closed-loop client think time: the applied value is
    /// `base_ns * signal` nanoseconds (negative values clamp to 0).
    /// A value of 0 is the paper's think-free closed loop (Figs. 4–6).
    ThinkNanos {
        /// Think time at signal value 1.0.
        base_ns: u64,
    },
    /// Active-fraction resize: the signal value is the active byte
    /// count handed to `YcsbRedis::set_active_bytes`.
    ActiveBytes,
    /// Working-set remap: the signal value (a phase index) selects the
    /// start of the active window as `phase * stride_records`.
    WindowPhase {
        /// Records the window advances per phase step.
        stride_records: u64,
    },
    /// Memory reservation of the VM in bytes.
    ReservationBytes,
}

/// One signal wired to one knob on one VM.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Executor-side VM index (opaque to the driver).
    pub vm: usize,
    /// The knob the signal drives.
    pub knob: Knob,
    /// The intensity signal.
    pub signal: Signal,
}

/// A knob change the executor must apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Action {
    /// Executor-side VM index.
    pub vm: usize,
    /// Which knob changed.
    pub knob: Knob,
    /// The signal's new value (the executor converts to knob units).
    pub value: f64,
}

/// Periodically-polled collection of signal bindings (sans-IO).
#[derive(Debug, Clone)]
pub struct WorkloadDriver {
    bindings: Vec<Binding>,
    /// Last emitted value per binding; `None` until first poll, so the
    /// first poll emits every non-constant binding.
    last: Vec<Option<f64>>,
}

impl WorkloadDriver {
    /// Build a driver over `bindings`.
    pub fn new(bindings: Vec<Binding>) -> Self {
        let n = bindings.len();
        WorkloadDriver {
            bindings,
            last: vec![None; n],
        }
    }

    /// The driver's bindings.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// True when every binding is structurally constant: the executor
    /// applies initial values at arm time and installs no tick event.
    pub fn is_static(&self) -> bool {
        self.bindings.iter().all(|b| b.signal.is_constant())
    }

    /// Emit the initial value of every binding (constant or not),
    /// marking them as emitted. Called once at arm time so constants are
    /// applied without ever being polled again.
    pub fn initial_actions(&mut self, now: SimTime, out: &mut Vec<Action>) {
        out.clear();
        for (i, b) in self.bindings.iter().enumerate() {
            let v = b.signal.value_at(now);
            self.last[i] = Some(v);
            out.push(Action {
                vm: b.vm,
                knob: b.knob,
                value: v,
            });
        }
    }

    /// Evaluate every non-constant binding at `now` and append an
    /// [`Action`] for each whose value changed since the last emission.
    /// Constant bindings are skipped entirely (their value was applied
    /// at arm time and can never change).
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Action>) {
        out.clear();
        for (i, b) in self.bindings.iter().enumerate() {
            if b.signal.is_constant() {
                continue;
            }
            let v = b.signal.value_at(now);
            if self.last[i] != Some(v) {
                self.last[i] = Some(v);
                out.push(Action {
                    vm: b.vm,
                    knob: b.knob,
                    value: v,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_sim_core::time::SimDuration;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn static_driver_has_no_dynamic_work() {
        let mut d = WorkloadDriver::new(vec![
            Binding {
                vm: 0,
                knob: Knob::ActiveBytes,
                signal: Signal::constant(1024.0),
            },
            Binding {
                vm: 1,
                knob: Knob::ThinkNanos { base_ns: 1000 },
                signal: Signal::constant(0.0),
            },
        ]);
        assert!(d.is_static());
        let mut out = Vec::new();
        d.initial_actions(secs(0), &mut out);
        assert_eq!(out.len(), 2, "constants still get an initial apply");
        d.poll(secs(10), &mut out);
        assert!(out.is_empty(), "constants never re-emit");
    }

    #[test]
    fn poll_emits_only_changes() {
        let mut d = WorkloadDriver::new(vec![Binding {
            vm: 3,
            knob: Knob::ReservationBytes,
            signal: Signal::ramp(secs(10), SimDuration::from_secs(10), 2, 100.0, 300.0),
        }]);
        assert!(!d.is_static());
        let mut out = Vec::new();
        d.initial_actions(secs(0), &mut out);
        assert_eq!(
            out,
            vec![Action {
                vm: 3,
                knob: Knob::ReservationBytes,
                value: 100.0
            }]
        );
        d.poll(secs(5), &mut out);
        assert!(out.is_empty(), "unchanged value must not re-emit");
        d.poll(secs(10), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 200.0);
        d.poll(secs(15), &mut out);
        assert!(out.is_empty());
        d.poll(secs(20), &mut out);
        assert_eq!(out[0].value, 300.0);
    }

    #[test]
    fn mixed_driver_is_not_static() {
        let d = WorkloadDriver::new(vec![
            Binding {
                vm: 0,
                knob: Knob::ActiveBytes,
                signal: Signal::constant(5.0),
            },
            Binding {
                vm: 0,
                knob: Knob::WindowPhase { stride_records: 64 },
                signal: Signal::phase_change(SimDuration::from_secs(30), 4),
            },
        ]);
        assert!(!d.is_static());
    }
}

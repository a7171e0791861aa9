//! Dual-clock controller schedule (Sec. 4.2, Fig. 6).
//!
//! Timing is coordinated by **controller-s** (100 MHz — pixel readout,
//! i-buffer and SRAM transfers) and **controller-f** (400 MHz — the SCM MAC
//! burst). This module materializes the four-step operation sequence of one
//! 4-row group as an explicit event trace, which the Fig. 6 experiment
//! prints and the tests check for the paper's overlap/ordering properties.

use crate::geometry::COLUMNS_PER_PE;
use crate::timing::TimingModel;

/// Which controller issues a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Controller-s, 100 MHz.
    Slow,
    /// Controller-f, 400 MHz.
    Fast,
}

/// One scheduled operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Start time within the group, ns.
    pub start_ns: f64,
    /// End time within the group, ns.
    pub end_ns: f64,
    /// What ran.
    pub step: Step,
    /// Which controller issued it.
    pub domain: ClockDomain,
}

/// The operation kinds of Fig. 6(b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Step ①a: global→local SRAM weight write (hidden behind readout).
    WeightWrite,
    /// Pixel row readout (ROWSEL active) for row `r` of the group.
    RowReadout(usize),
    /// Step ①b: analog pixel values into the 4 i-buffers.
    IBufWrite(usize),
    /// Step ②: the 16-MAC SCM burst for row `r`.
    MacSequence(usize),
    /// Step ④: o-buffers → ADC → global SRAM.
    OfmapReadout,
}

impl Event {
    /// Event duration, ns.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// Builds the event trace of one 4-row group (one pass).
pub fn group_trace(t: &TimingModel) -> Vec<Event> {
    let mut events = Vec::new();
    let mut clock = 0.0f64;
    for row in 0..COLUMNS_PER_PE {
        let readout_start = clock;
        let readout_end = readout_start + t.t_row_readout_ns;
        events.push(Event {
            start_ns: readout_start,
            end_ns: readout_end,
            step: Step::RowReadout(row),
            domain: ClockDomain::Slow,
        });
        if row == 0 {
            // Step ①: the weight write starts with ROWSEL and hides behind
            // the (much longer) row readout.
            events.push(Event {
                start_ns: readout_start,
                end_ns: readout_start + t.t_weight_write_ns,
                step: Step::WeightWrite,
                domain: ClockDomain::Slow,
            });
        }
        let ibuf_end = readout_end + t.t_ibuf_write_ns;
        events.push(Event {
            start_ns: readout_end,
            end_ns: ibuf_end,
            step: Step::IBufWrite(row),
            domain: ClockDomain::Slow,
        });
        let mac_end = ibuf_end + t.t_mac_seq_ns;
        events.push(Event {
            start_ns: ibuf_end,
            end_ns: mac_end,
            step: Step::MacSequence(row),
            domain: ClockDomain::Fast,
        });
        clock = mac_end;
    }
    events.push(Event {
        start_ns: clock,
        end_ns: clock + t.t_ofmap_ns,
        step: Step::OfmapReadout,
        domain: ClockDomain::Slow,
    });
    events
}

/// Total latency of one group trace, ns.
pub fn group_trace_latency_ns(events: &[Event]) -> f64 {
    events.iter().fold(0.0f64, |m, e| m.max(e.end_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<Event> {
        group_trace(&TimingModel::paper())
    }

    #[test]
    fn trace_has_all_steps() {
        let t = trace();
        assert_eq!(
            t.iter()
                .filter(|e| matches!(e.step, Step::RowReadout(_)))
                .count(),
            4
        );
        assert_eq!(
            t.iter()
                .filter(|e| matches!(e.step, Step::MacSequence(_)))
                .count(),
            4
        );
        assert_eq!(t.iter().filter(|e| e.step == Step::WeightWrite).count(), 1);
        assert_eq!(t.iter().filter(|e| e.step == Step::OfmapReadout).count(), 1);
    }

    #[test]
    fn weight_write_hidden_behind_first_readout() {
        let t = trace();
        let ww = t.iter().find(|e| e.step == Step::WeightWrite).unwrap();
        let ro = t.iter().find(|e| e.step == Step::RowReadout(0)).unwrap();
        assert!(ww.start_ns >= ro.start_ns);
        assert!(ww.end_ns <= ro.end_ns, "weight write must hide in readout");
    }

    #[test]
    fn mac_burst_is_fast_domain() {
        let t = trace();
        for e in &t {
            match e.step {
                Step::MacSequence(_) => assert_eq!(e.domain, ClockDomain::Fast),
                _ => assert_eq!(e.domain, ClockDomain::Slow),
            }
        }
    }

    #[test]
    fn steps_are_sequential_per_row() {
        let t = trace();
        for row in 0..4 {
            let ro = t.iter().find(|e| e.step == Step::RowReadout(row)).unwrap();
            let ib = t.iter().find(|e| e.step == Step::IBufWrite(row)).unwrap();
            let mac = t.iter().find(|e| e.step == Step::MacSequence(row)).unwrap();
            assert_eq!(ro.end_ns, ib.start_ns);
            assert_eq!(ib.end_ns, mac.start_ns);
        }
    }

    #[test]
    fn trace_latency_matches_timing_model() {
        let tm = TimingModel::paper();
        let t = group_trace(&tm);
        assert!((group_trace_latency_ns(&t) - tm.group_latency_ns()).abs() < 1e-9);
    }

    #[test]
    fn durations_positive() {
        for e in trace() {
            assert!(e.duration_ns() > 0.0);
        }
    }
}

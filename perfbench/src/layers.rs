//! The traced pass's self-profile: a benchmark-owned [`Observer`] that
//! stamps host time on every trace event, and the rule that charges
//! each host-time gap to a layer.
//!
//! The gap between two consecutive events is charged to the layer of
//! the event that *closes* it: that event is what the runtime was
//! working towards during the gap. Time before the first event and
//! after the last event of the pass goes to the entry point's own
//! `pre` and `post` layers. The gaps tile the pass, so the layers sum
//! to the traced pass's host time exactly.

use std::time::{Duration, Instant};

use disagg_hwsim::trace::TraceEvent;
use disagg_obs::Observer;

/// Where a host-time gap is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Migrate`: region copies, including bandwidth-ledger reservation.
    RegionCopy,
    /// `Alloc`.
    RegionAlloc,
    /// `Free`.
    RegionFree,
    /// `Access`.
    RegionAccess,
    /// `OwnershipTransfer`.
    RegionTransfer,
    /// `TaskQueued`, `TaskDispatch`, `TaskStart`.
    CoreDispatch,
    /// `TaskFinish`.
    CoreBody,
    /// Fault detection, retries, reconstruction, breaker transitions.
    CoreRecovery,
    /// `RequestTag`, `RequestShed`, `RequestDegraded`.
    ServeAdmit,
    /// Before the pass's first event.
    Pre,
    /// After the pass's last event.
    Post,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 11;

    /// Every layer, in index order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::RegionCopy,
        Layer::RegionAlloc,
        Layer::RegionFree,
        Layer::RegionAccess,
        Layer::RegionTransfer,
        Layer::CoreDispatch,
        Layer::CoreBody,
        Layer::CoreRecovery,
        Layer::ServeAdmit,
        Layer::Pre,
        Layer::Post,
    ];

    /// The layer an event's closing gap is charged to.
    pub fn of(event: &TraceEvent) -> Layer {
        match event {
            TraceEvent::Migrate { .. } => Layer::RegionCopy,
            TraceEvent::Alloc { .. } => Layer::RegionAlloc,
            TraceEvent::Free { .. } => Layer::RegionFree,
            TraceEvent::Access { .. } => Layer::RegionAccess,
            TraceEvent::OwnershipTransfer { .. } => Layer::RegionTransfer,
            TraceEvent::TaskQueued { .. }
            | TraceEvent::TaskDispatch { .. }
            | TraceEvent::TaskStart { .. } => Layer::CoreDispatch,
            TraceEvent::TaskFinish { .. } => Layer::CoreBody,
            TraceEvent::FaultDetected { .. }
            | TraceEvent::TaskRetry { .. }
            | TraceEvent::Reconstruct { .. }
            | TraceEvent::BreakerTrip { .. }
            | TraceEvent::BreakerProbe { .. }
            | TraceEvent::BreakerClose { .. } => Layer::CoreRecovery,
            TraceEvent::RequestTag { .. }
            | TraceEvent::RequestShed { .. }
            | TraceEvent::RequestDegraded { .. } => Layer::ServeAdmit,
        }
    }
}

/// Stamps `Instant::now()` on each event and keeps the stamps in
/// memory; classifying by variant is the only other work it does.
#[derive(Debug, Default)]
pub struct Stamper {
    /// `(host time, layer)` per event, in emission order.
    pub stamps: Vec<(Instant, Layer)>,
}

impl Observer for Stamper {
    fn on_event(&mut self, event: &TraceEvent) {
        self.stamps.push((Instant::now(), Layer::of(event)));
    }
}

/// Host time per layer, indexed like [`Layer::ALL`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Profile(pub [Duration; Layer::COUNT]);

impl Profile {
    /// Charges each gap of `[start, end]` to the layer of the stamp that
    /// closes it.
    pub fn attribute(start: Instant, stamps: &[(Instant, Layer)], end: Instant) -> Profile {
        let mut p = Profile::default();
        let mut prev = start;
        for (i, &(at, layer)) in stamps.iter().enumerate() {
            let charged = if i == 0 { Layer::Pre } else { layer };
            p.0[charged as usize] += at.saturating_duration_since(prev);
            prev = at;
        }
        p.0[Layer::Post as usize] += end.saturating_duration_since(prev);
        p
    }

    /// Adds another profile's host time, layer by layer.
    pub fn add(&mut self, other: &Profile) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// Host time charged to one layer.
    pub fn get(&self, layer: Layer) -> Duration {
        self.0[layer as usize]
    }

    /// Host time over all layers.
    pub fn total(&self) -> Duration {
        self.0.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_tile_the_pass() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let stamps = [
            (t0 + ms(2), Layer::RegionAlloc),
            (t0 + ms(5), Layer::RegionCopy),
            (t0 + ms(6), Layer::CoreBody),
        ];
        let p = Profile::attribute(t0, &stamps, t0 + ms(10));
        assert_eq!(p.get(Layer::Pre), ms(2));
        assert_eq!(p.get(Layer::RegionAlloc), Duration::ZERO);
        assert_eq!(p.get(Layer::RegionCopy), ms(3));
        assert_eq!(p.get(Layer::CoreBody), ms(1));
        assert_eq!(p.get(Layer::Post), ms(4));
        assert_eq!(p.total(), ms(10));
    }
}

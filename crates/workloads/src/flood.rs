//! Open-loop paced client driver for overload experiments.
//!
//! The closed-loop drivers elsewhere in this crate submit the next
//! operation when the previous completes, so their offered load shrinks
//! as the cluster slows — useless for a degradation curve, whose x-axis
//! *is* offered load. [`FloodDriver`] instead offers one operation every
//! `interval_ns` regardless of progress. The protocol client underneath
//! stays closed-loop (one outstanding operation); a tick that finds the
//! previous operation still in flight counts the offer as skipped
//! rather than queueing it, which keeps offered load honest in the
//! throughput accounting: goodput = completed, offered = ticks.

use bft_core::client::{ClientApi, ClientDriver};

/// Submits a fixed operation at a fixed interval, open loop.
#[derive(Debug, Clone)]
pub struct FloodDriver {
    /// Nanoseconds between offered operations.
    pub interval_ns: u64,
    /// The operation body each tick submits.
    pub op: Vec<u8>,
    /// Whether to request the read-only path.
    pub read_only: bool,
    offered: u64,
    skipped: u64,
}

impl FloodDriver {
    /// A driver offering `op` every `interval_ns` nanoseconds.
    pub fn new(interval_ns: u64, op: Vec<u8>, read_only: bool) -> FloodDriver {
        FloodDriver {
            interval_ns: interval_ns.max(1),
            op,
            read_only,
            offered: 0,
            skipped: 0,
        }
    }

    /// Operations offered so far (submitted + skipped).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Offers that found the previous operation still in flight and were
    /// dropped at the source. `offered - skipped` were actually
    /// submitted; completions below even that mark replica-side shedding
    /// or loss.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    fn offer(&mut self, api: &mut ClientApi<'_, '_>) {
        self.offered += 1;
        if api.busy() {
            self.skipped += 1;
        } else {
            api.submit(self.op.clone(), self.read_only);
        }
    }
}

impl ClientDriver for FloodDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.offer(api);
        api.set_timer(self.interval_ns, 0);
    }

    fn on_complete(&mut self, _api: &mut ClientApi<'_, '_>, _result: &[u8], _latency_ns: u64) {
        // Open loop: pacing comes from the timer alone.
    }

    fn on_timer(&mut self, api: &mut ClientApi<'_, '_>, _token: u64) {
        self.offer(api);
        api.set_timer(self.interval_ns, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_is_never_zero() {
        let d = FloodDriver::new(0, vec![1], false);
        assert_eq!(d.interval_ns, 1);
        assert_eq!(d.offered(), 0);
        assert_eq!(d.skipped(), 0);
    }
}

//! Online parameter tuning.
//!
//! §3.2 offers two ways to gather the `M` result samples that feed the
//! Equation-2 enumeration: "pre-running it for a certain time or
//! **sampling periodically during its run**". [`ParamSelector::select`]
//! covers the pre-run; this module covers the online path: an
//! [`OnlineTuner`] observes every completed call's result size and
//! server-reported process time, and periodically re-runs the selection,
//! pushing fresh `(R, F)` into the client when the optimum moves — so a
//! workload whose result sizes drift (say, values growing from 32 B to
//! 700 B) stops paying a second READ per call without operator action.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use rfp_simnet::SimSpan;

use crate::client::{CallResult, RfpClient};
use crate::params::{ParamSelector, Params, WorkloadSample};

/// Sliding-window sampler that re-selects `(R, F)` periodically.
pub struct OnlineTuner {
    selector: ParamSelector,
    /// Size of the sliding sample window (the paper's `M`).
    window: usize,
    /// Re-run the selection every this many observed calls.
    reselect_every: u64,
    /// The deployment the model assumes; each selection fills in the
    /// sampled result sizes and process time.
    template: WorkloadSample,
    sizes: RefCell<VecDeque<usize>>,
    /// Exponentially-weighted mean of the server process time, in ns.
    ewma_p_ns: Cell<f64>,
    observed: Cell<u64>,
    retunes: Cell<u64>,
    current: Cell<Option<Params>>,
}

impl OnlineTuner {
    /// Creates a tuner re-selecting every `reselect_every` calls over a
    /// `window`-sample history. `template` describes the deployment —
    /// request size, client threads and machines; its result sizes and
    /// process time are replaced by the online samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `reselect_every` is zero.
    pub fn new(
        selector: ParamSelector,
        window: usize,
        reselect_every: u64,
        template: WorkloadSample,
    ) -> Self {
        assert!(window > 0, "sample window must be positive");
        assert!(reselect_every > 0, "reselect period must be positive");
        OnlineTuner {
            selector,
            window,
            reselect_every,
            template,
            sizes: RefCell::new(VecDeque::with_capacity(window)),
            ewma_p_ns: Cell::new(0.0),
            observed: Cell::new(0),
            retunes: Cell::new(0),
            current: Cell::new(None),
        }
    }

    /// Calls observed so far.
    pub fn observed(&self) -> u64 {
        self.observed.get()
    }

    /// Times a re-selection actually changed the parameters.
    pub fn retunes(&self) -> u64 {
        self.retunes.get()
    }

    /// The last selected parameters, if a selection has run.
    pub fn current(&self) -> Option<Params> {
        self.current.get()
    }

    /// Feeds one completed call; re-selects and applies new parameters
    /// to `client` when the period elapses and the optimum moved.
    /// Returns the new parameters when a retune happened.
    pub fn observe(&self, client: &RfpClient, result: &CallResult) -> Option<Params> {
        {
            let mut sizes = self.sizes.borrow_mut();
            if sizes.len() == self.window {
                sizes.pop_front();
            }
            sizes.push_back(result.data.len());
        }
        // EWMA over the server-reported time; α = 1/64 smooths the
        // 1 µs quantisation of the 16-bit field.
        let p_ns = result.info.server_time_us as f64 * 1_000.0;
        let prev = self.ewma_p_ns.get();
        self.ewma_p_ns.set(if self.observed.get() == 0 {
            p_ns
        } else {
            prev + (p_ns - prev) / 64.0
        });

        let n = self.observed.get() + 1;
        self.observed.set(n);
        if !n.is_multiple_of(self.reselect_every) {
            return None;
        }

        let sample = WorkloadSample {
            result_sizes: self.sizes.borrow().iter().copied().collect(),
            process_time: SimSpan::from_nanos_f64(self.ewma_p_ns.get()),
            ..self.template.clone()
        };
        let picked = self.selector.select(&sample);
        let changed = self.current.get() != Some(picked);
        self.current.set(Some(picked));
        if changed {
            // Clamp F to what the connection's buffers can carry.
            let f = picked.f.min(client.max_fetch_size());
            client.set_params(picked.r, f);
            self.retunes.set(self.retunes.get() + 1);
            Some(Params { r: picked.r, f })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_rnic::{LinkProfile, NicProfile};

    fn selector() -> ParamSelector {
        ParamSelector::new(NicProfile::connectx3_40g(), LinkProfile::infiniscale())
    }

    fn template() -> WorkloadSample {
        WorkloadSample {
            result_sizes: Vec::new(),
            process_time: SimSpan::ZERO,
            request_size: 64,
            client_threads: 35,
            client_machines: 7,
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = OnlineTuner::new(selector(), 0, 10, template());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = OnlineTuner::new(selector(), 10, 0, template());
    }
}

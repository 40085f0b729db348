//! The output check: every response of a run, and the state it leaves,
//! compared with an untimed reference.
//!
//! The reference is the same stream applied op by op through sequential
//! [`DisclosureService::apply`] on a fresh in-memory service with one
//! worker — the executor whose semantics every other path must equal.
//! Responses are compared through one digest per call, so a divergence is
//! reported with the call it happened in.

use fdc_policy::{Decision, PrincipalId};
use fdc_service::{DisclosureService, Operation, Response, ServiceConfig};

use crate::workload::{Inputs, Spec};

/// Folds one response into a call digest (FNV-1a over a response code).
fn fold_response(digest: u64, response: &Response) -> u64 {
    let code: u64 = match response {
        Response::Decision(Decision::Allow) => 1,
        Response::Decision(Decision::Deny) => 2,
        Response::PolicyUpdated => 3,
        Response::ViewAdded(id) => 4 | (id.index() as u64) << 8,
        Response::Audit(_) => 5,
        Response::Rejected(err) => {
            6 | format!("{err:?}")
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
                << 8
        }
    };
    (digest ^ code).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The digest of one call's responses.
pub fn call_digest(responses: &[Response]) -> u64 {
    responses.iter().fold(0xCBF2_9CE4_8422_2325, fold_response)
}

/// Compares per-call digests of a run against the reference.
pub fn compare_digests(live: &[u64], reference: &[u64]) -> Result<(), String> {
    if live.len() != reference.len() {
        return Err(format!(
            "{} calls answered, reference answered {}",
            live.len(),
            reference.len()
        ));
    }
    match live.iter().zip(reference).position(|(a, b)| a != b) {
        Some(call) => Err(format!(
            "responses of call {call} differ from the reference"
        )),
        None => Ok(()),
    }
}

/// The extensional state of a service an acknowledged write must survive
/// in: totals, every principal's counters and consistency word, and the
/// security-view registry.
#[derive(Debug, PartialEq, Eq)]
pub struct StateSummary {
    totals: (u64, u64),
    principals: Vec<((u64, u64), u64)>,
    registry: Vec<u8>,
}

impl StateSummary {
    /// Reads the summary of a service.
    pub fn of(service: &DisclosureService) -> StateSummary {
        let store = service.store();
        let principals = (0..service.num_principals())
            .map(|i| {
                let p = PrincipalId(i as u32);
                (store.stats(p), store.consistency_bits(p))
            })
            .collect();
        let mut registry = Vec::new();
        service.registry().encode_into(&mut registry);
        StateSummary {
            totals: service.totals(),
            principals,
            registry,
        }
    }

    /// Explains the first difference from `other`, if any.
    pub fn compare(&self, other: &StateSummary, what: &str) -> Result<(), String> {
        if self.totals != other.totals {
            return Err(format!(
                "{what}: totals {:?} != {:?}",
                self.totals, other.totals
            ));
        }
        if self.principals.len() != other.principals.len() {
            return Err(format!(
                "{what}: {} principals != {}",
                self.principals.len(),
                other.principals.len()
            ));
        }
        if let Some(i) =
            (0..self.principals.len()).find(|&i| self.principals[i] != other.principals[i])
        {
            return Err(format!("{what}: state of principal {i} differs"));
        }
        if self.registry != other.registry {
            return Err(format!("{what}: security-view registries differ"));
        }
        Ok(())
    }
}

/// Replays a run's input — registrations, warmup, then the first `calls`
/// calls of the measured stream — through sequential `apply` on a fresh
/// one-worker in-memory service, returning its per-call digests and final
/// state.
pub fn reference(spec: &Spec, seed: u64, calls: usize) -> (Vec<u64>, StateSummary) {
    let mut inputs = Inputs::new(spec, seed);
    let mut service = DisclosureService::new(
        inputs.registry.clone(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    for policy in std::mem::take(&mut inputs.policies) {
        service.register_principal(policy);
    }
    let apply = |service: &mut DisclosureService, ops: &[Operation]| -> Vec<Response> {
        ops.iter().map(|op| service.apply(op)).collect()
    };
    let warmup = std::mem::take(&mut inputs.warmup);
    apply(&mut service, &warmup);
    let mut digests = Vec::with_capacity(calls);
    while digests.len() < calls {
        let chunk_calls = (calls - digests.len()).min(crate::run::CHUNK_OPS / spec.call_ops);
        let ops = inputs.next_ops(chunk_calls * spec.call_ops);
        for call in ops.chunks(spec.call_ops) {
            digests.push(call_digest(&apply(&mut service, call)));
        }
    }
    (digests, StateSummary::of(&service))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_decision_changes_the_digest() {
        let allow = [Response::Decision(Decision::Allow), Response::PolicyUpdated];
        let deny = [Response::Decision(Decision::Deny), Response::PolicyUpdated];
        let swapped = [Response::PolicyUpdated, Response::Decision(Decision::Allow)];
        assert_ne!(call_digest(&allow), call_digest(&deny));
        assert_ne!(call_digest(&allow), call_digest(&swapped));
        let live = vec![call_digest(&allow), call_digest(&allow)];
        let reference = vec![call_digest(&allow), call_digest(&deny)];
        assert!(compare_digests(&live, &live).is_ok());
        assert!(compare_digests(&live, &reference)
            .unwrap_err()
            .contains("call 1"));
    }
}

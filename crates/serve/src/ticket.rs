//! Per-query tickets: `Engine::submit` returns immediately with a
//! [`QueryTicket`]; the ticket resolves when the query's window fills (or is
//! drained) and the window's collective memory prediction is known.
//!
//! Every ticket of one window shares that window's single `TicketState`,
//! so a submission allocates no state of its own, and scoring resolves the
//! window once rather than once per member.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use wmp_mlkit::{MlError, MlResult};
use wmp_plan::ResourceVector;

/// The serving verdict for one workload window, delivered to every member
/// query's ticket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDecision {
    /// Sequence number of the window this query was batched into.
    pub window_id: u64,
    /// Predicted collective resource demand of the window (memory MB /
    /// CPU ms / IO pages). Models persisted before multi-resource targets
    /// report zero on the CPU and IO axes.
    pub predicted: ResourceVector,
    /// Number of queries in the window.
    pub window_len: usize,
    /// Version of the model snapshot that scored the window (see
    /// [`learnedwmp_core::handle::ModelSnapshot::version`]) — every member
    /// of one window is scored by the same snapshot.
    pub model_version: u64,
}

impl WorkloadDecision {
    /// Predicted collective working memory of the window (MB) — the memory
    /// projection of [`WorkloadDecision::predicted`], bit-identical to the
    /// scalar prediction path.
    pub fn predicted_mb(&self) -> f64 {
        self.predicted.memory_mb
    }
}

/// The resolution slot of one window, shared by all of its tickets.
pub(crate) struct TicketState {
    slot: Mutex<Option<MlResult<WorkloadDecision>>>,
    ready: Condvar,
}

impl TicketState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketState { slot: Mutex::new(None), ready: Condvar::new() })
    }

    pub(crate) fn resolve(&self, result: MlResult<WorkloadDecision>) {
        let mut slot = self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.ready.notify_all();
    }
}

/// A pending prediction for one submitted query. Cheap to move across
/// threads; `wait` blocks until the query's window has been scored.
#[must_use = "dropping a ticket loses the only way to read this query's prediction"]
pub struct QueryTicket {
    pub(crate) seq: u64,
    pub(crate) state: Arc<TicketState>,
}

impl QueryTicket {
    /// Engine-assigned submission sequence number of this query.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// True once the window has been scored (or failed).
    pub fn is_resolved(&self) -> bool {
        self.state.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_some()
    }

    /// Non-blocking read of the decision, if the window has been scored.
    pub fn try_get(&self) -> Option<MlResult<WorkloadDecision>> {
        self.state.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Blocks until the window is scored and returns the decision.
    ///
    /// # Errors
    /// Propagates the window's prediction error; every ticket of a failed
    /// window receives the same error.
    pub fn wait(&self) -> MlResult<WorkloadDecision> {
        let mut slot = self.state.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = slot.clone() {
                return result;
            }
            slot = self.state.ready.wait(slot).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// [`QueryTicket::wait`] with a timeout.
    ///
    /// # Errors
    /// Returns [`MlError::Timeout`] if the window was not scored within
    /// `timeout` (the window has not filled; `Engine::drain` flushes it).
    pub fn wait_timeout(&self, timeout: Duration) -> MlResult<WorkloadDecision> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = self.state.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = slot.clone() {
                return result;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(MlError::Timeout("QueryTicket window to be scored"));
            }
            let (guard, _) = self
                .state
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slot = guard;
        }
    }
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket")
            .field("seq", &self.seq)
            .field("resolved", &self.is_resolved())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision() -> WorkloadDecision {
        WorkloadDecision {
            window_id: 3,
            predicted: ResourceVector::new(123.0, 4.5, 900.0),
            window_len: 10,
            model_version: 1,
        }
    }

    #[test]
    fn resolve_wakes_waiters_and_is_idempotent() {
        let state = TicketState::new();
        let ticket = QueryTicket { seq: 7, state: Arc::clone(&state) };
        assert!(!ticket.is_resolved());
        assert!(ticket.try_get().is_none());

        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || QueryTicket { seq: 7, state }.wait())
        };
        state.resolve(Ok(decision()));
        // A second resolution must not overwrite the first.
        state.resolve(Err(MlError::SingularMatrix));
        assert_eq!(waiter.join().unwrap().unwrap(), decision());
        assert_eq!(ticket.wait().unwrap(), decision());
        assert_eq!(ticket.seq(), 7);
    }

    #[test]
    fn wait_timeout_reports_unscored_windows() {
        let state = TicketState::new();
        let ticket = QueryTicket { seq: 0, state };
        let err = ticket.wait_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, MlError::Timeout("QueryTicket window to be scored"));
    }

    #[test]
    fn failed_windows_deliver_the_error() {
        let state = TicketState::new();
        let ticket = QueryTicket { seq: 0, state: Arc::clone(&state) };
        state.resolve(Err(MlError::SingularMatrix));
        assert_eq!(ticket.wait().unwrap_err(), MlError::SingularMatrix);
        assert!(ticket.is_resolved());
    }
}

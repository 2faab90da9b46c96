//! Deterministic fault injection, compiled in only with `fault-inject`.
//!
//! The harness assigns each accepted request a fault drawn from a seeded
//! splitmix64 stream — no wall clock, no global state — so a soak run
//! with a given seed injects *exactly* the same faults every time. Sites
//! in the worker path call [`failpoint!`](crate::failpoint); without the
//! feature the macro expands to nothing and release builds carry no
//! failpoints.
//!
//! The fault matrix (see DESIGN §5i):
//!
//! | fault            | site                    | expected containment        |
//! |------------------|-------------------------|-----------------------------|
//! | builder panic    | `worker.route`          | caught, `internal` response |
//! | forced internal  | `worker.route`          | typed `internal` response   |
//! | short delay      | `worker.admitted`       | response within budget      |
//! | long delay       | `worker.admitted`       | `DeadlineExceeded` failures |

use bmst_core::BmstError;

/// Seeded per-request fault selection.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The run's seed; request `seq` draws fault `splitmix64(seed ^ seq)`.
    pub seed: u64,
}

/// The fault assigned to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No injected fault.
    None,
    /// Panic inside the worker's routing path (must be caught and
    /// answered as a typed `internal` error — the process survives).
    Panic,
    /// Return a forced [`BmstError::Internal`] from the routing path.
    Internal,
    /// Sleep briefly before routing (shorter than any sane budget).
    DelayShort,
    /// Sleep long enough to blow a tight request budget.
    DelayLong,
}

/// splitmix64: the workspace-standard deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// The fault assigned to request number `seq`. Roughly 60% of
    /// requests run clean; the rest split evenly across the matrix.
    pub fn decide(&self, seq: u64) -> Fault {
        match splitmix64(self.seed ^ seq) % 10 {
            0 => Fault::Panic,
            1 => Fault::Internal,
            2 => Fault::DelayShort,
            3 => Fault::DelayLong,
            _ => Fault::None,
        }
    }
}

/// Delay injected for [`Fault::DelayShort`], in milliseconds.
pub const SHORT_DELAY_MS: u64 = 2;
/// Delay injected for [`Fault::DelayLong`], in milliseconds.
pub const LONG_DELAY_MS: u64 = 40;

/// Fires the fault assigned to a request at a named site. Called through
/// the [`failpoint!`](crate::failpoint) macro, never directly.
///
/// # Errors
///
/// [`BmstError::Internal`] for [`Fault::Internal`] at the `worker.route`
/// site.
///
/// # Panics
///
/// Deliberately, for [`Fault::Panic`] at the `worker.route` site — the
/// worker's `catch_unwind` must contain it.
#[expect(
    clippy::panic,
    reason = "injected panic; the soak test proves the worker's catch_unwind contains it"
)]
pub fn fire(fault: Fault, site: &str) -> Result<(), BmstError> {
    match (fault, site) {
        (Fault::Panic, "worker.route") => {
            emit(site, "panic");
            panic!("fault-inject: seeded panic at {site}");
        }
        (Fault::Internal, "worker.route") => {
            emit(site, "internal");
            Err(BmstError::internal(format!(
                "fault-inject: forced internal error at {site}"
            )))
        }
        (Fault::DelayShort, "worker.admitted") => {
            emit(site, "delay_short");
            std::thread::sleep(std::time::Duration::from_millis(SHORT_DELAY_MS));
            Ok(())
        }
        (Fault::DelayLong, "worker.admitted") => {
            emit(site, "delay_long");
            std::thread::sleep(std::time::Duration::from_millis(LONG_DELAY_MS));
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Records the injection in the observability stream.
fn emit(site: &str, kind: &str) {
    if bmst_obs::enabled() {
        bmst_obs::event(
            "serve.fault_injected",
            &[
                ("site", bmst_obs::Field::from(site)),
                ("kind", bmst_obs::Field::from(kind)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_mixed() {
        let plan = FaultPlan { seed: 0xb1157 };
        let first: Vec<Fault> = (0..200).map(|s| plan.decide(s)).collect();
        let second: Vec<Fault> = (0..200).map(|s| plan.decide(s)).collect();
        assert_eq!(first, second);
        // A 200-request soak at any seed should exercise the full matrix.
        for needle in [
            Fault::None,
            Fault::Panic,
            Fault::Internal,
            Fault::DelayShort,
            Fault::DelayLong,
        ] {
            assert!(first.contains(&needle), "{needle:?} never drawn");
        }
    }

    #[test]
    fn clean_faults_do_nothing() {
        assert!(fire(Fault::None, "worker.route").is_ok());
        assert!(fire(Fault::Panic, "worker.admitted").is_ok()); // wrong site
    }

    #[test]
    fn forced_internal_is_typed() {
        let err = fire(Fault::Internal, "worker.route").unwrap_err();
        assert!(matches!(err, BmstError::Internal { .. }));
    }

    #[test]
    fn injected_panic_fires() {
        let caught = std::panic::catch_unwind(|| fire(Fault::Panic, "worker.route"));
        // The caught panic maps into BmstError::Internal at the worker;
        // here we only prove the failpoint actually panics.
        assert!(caught.is_err());
        let _ = BmstError::internal("fault containment is the worker's job");
    }
}

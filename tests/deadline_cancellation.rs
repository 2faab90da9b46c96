//! Acceptance pin for prompt cancellation: a 50 ms budget against a
//! 5000-sink pathological instance (BKRUS) and a 200-sink uniform net
//! (BKST on the Hanan grid) must each come back as a typed
//! `DeadlineExceeded` failure in a small fraction of the uncancelled
//! runtime (seconds per relaxation rung at these scales), with no panic
//! and no malformed report.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic

use std::time::{Duration, Instant};

use bmst_core::{BmstError, CancelToken};
use bmst_instances::{scaled_net, ScaleStyle};
use bmst_router::{Criticality, NamedNet, Netlist, RouteAlgorithm, RouterConfig};

/// Generous CI bound: far above anything a 50 ms-budgeted run should
/// need (context setup at n=5000 is hundreds of milliseconds at worst),
/// far below the multi-second uncancelled ladder.
const WALL_BOUND: Duration = Duration::from_secs(3);

#[test]
fn pathological_instance_cancels_promptly() {
    let cases = [
        (
            RouteAlgorithm::bkrus(),
            scaled_net(5000, 0xdead11e, ScaleStyle::Pathological),
        ),
        (
            RouteAlgorithm::steiner(),
            scaled_net(200, 0xdead11e, ScaleStyle::Uniform),
        ),
    ];
    for (algorithm, net) in cases {
        let name = algorithm.descriptor().name;
        let netlist = Netlist::new(vec![NamedNet::new("huge", net, Criticality::Critical)]);

        let token = CancelToken::with_budget(Duration::from_millis(50));
        let config = RouterConfig {
            algorithm,
            cancel: token.clone(),
            ..RouterConfig::default()
        };

        let started = Instant::now();
        let report = netlist.route(&config);
        let elapsed = started.elapsed();

        assert!(
            elapsed < WALL_BOUND,
            "{name}: cancellation took {elapsed:?}, expected well under {WALL_BOUND:?}"
        );
        assert!(
            token.is_cancelled(),
            "{name}: the budget token should have fired"
        );

        assert_eq!(
            report.nets.len(),
            0,
            "{name}: no tree should survive a fired deadline"
        );
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        match &failure.error {
            BmstError::DeadlineExceeded { budget_ms, .. } => assert_eq!(*budget_ms, 50),
            other => panic!("{name}: expected DeadlineExceeded, got {other}"),
        }
        // The trail must end at the rung where the deadline fired.
        let last = failure
            .attempts
            .last()
            .expect("at least one relaxation step");
        assert!(
            last.error.contains("deadline exceeded"),
            "{name}: trail should end with the deadline error, got: {}",
            last.error
        );
    }
}

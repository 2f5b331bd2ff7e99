//! Failure-injection tests: every way a program or its environment can be
//! malformed must surface as a typed error (or a graceful degradation), not
//! a panic or a silent protection hole.

use terp_suite::prelude::*;
use terp_suite::terp_core::runtime::RunError;

fn pool(reg: &mut PmoRegistry, name: &str) -> PmoId {
    reg.create(name, 1 << 20, OpenMode::ReadWrite).unwrap()
}

fn run(
    scheme: Scheme,
    reg: &mut PmoRegistry,
    traces: Vec<ThreadTrace>,
) -> Result<RunReport, RunError> {
    Executor::new(
        SimParams::default(),
        ProtectionConfig::new(scheme, 40.0, 2.0),
    )
    .run(reg, traces)
}

#[test]
fn missing_detach_is_survivable_but_visible() {
    // A trace that attaches and never detaches: the run completes (the
    // sweep eventually closes the window under TT) and the report shows the
    // unbalanced construct count.
    let mut reg = PmoRegistry::new();
    let pmo = pool(&mut reg, "leak");
    let trace = ThreadTrace::from_ops(vec![
        TraceOp::Attach {
            pmo,
            perm: Permission::Read,
        },
        TraceOp::PmoAccess {
            oid: ObjectId::new(pmo, 0),
            kind: AccessKind::Read,
            tag: None,
        },
        TraceOp::Compute { instrs: 1_000_000 },
    ]);
    let report = run(Scheme::terp_full(), &mut reg, vec![trace]).unwrap();
    // The thread never detached, so the hardware cannot unmap (the counter
    // stays nonzero) — instead the sweep re-randomizes the still-held PMO
    // every EW, bounding how long it sits at one address.
    assert_eq!(report.detach_syscalls, 0);
    assert!(report.randomizations >= 4, "got {}", report.randomizations);
    assert!(
        report.ew_max_us() < 45.0,
        "address lifetime still bounded: {}",
        report.ew_max_us()
    );
}

#[test]
fn detach_without_attach_under_merr_errors() {
    let mut reg = PmoRegistry::new();
    let pmo = pool(&mut reg, "stray");
    let trace = ThreadTrace::from_ops(vec![TraceOp::Detach { pmo }]);
    let err = run(Scheme::Merr, &mut reg, vec![trace]).unwrap_err();
    assert!(matches!(err, RunError::DetachUnattached { .. }));
}

#[test]
fn stray_detach_under_tt_is_untracked_but_survivable() {
    // Under TERP the hardware has no entry for the PMO: the op executes as
    // an untracked detach (degraded, counted) rather than crashing.
    let mut reg = PmoRegistry::new();
    let pmo = pool(&mut reg, "stray2");
    let trace = ThreadTrace::from_ops(vec![TraceOp::Detach { pmo }]);
    let report = run(Scheme::terp_full(), &mut reg, vec![trace]).unwrap();
    assert_eq!(report.cond.untracked_detach, 1);
    assert_eq!(report.detach_syscalls, 0, "nothing was mapped to unmap");
}

#[test]
fn access_to_unknown_pool_is_a_substrate_error() {
    let mut reg = PmoRegistry::new();
    let _ = pool(&mut reg, "known");
    let ghost = PmoId::new(999).unwrap();
    let trace = ThreadTrace::from_ops(vec![TraceOp::Attach {
        pmo: ghost,
        perm: Permission::Read,
    }]);
    let err = run(Scheme::Merr, &mut reg, vec![trace]).unwrap_err();
    assert!(matches!(err, RunError::Substrate(_)));
}

#[test]
fn write_through_read_window_denied_everywhere() {
    for scheme in [Scheme::Merr, Scheme::terp_full()] {
        let mut reg = PmoRegistry::new();
        let pmo = pool(&mut reg, "ro-window");
        let trace = ThreadTrace::from_ops(vec![
            TraceOp::Attach {
                pmo,
                perm: Permission::Read,
            },
            TraceOp::PmoAccess {
                oid: ObjectId::new(pmo, 0),
                kind: AccessKind::Write,
                tag: None,
            },
            TraceOp::Detach { pmo },
        ]);
        let err = run(scheme, &mut reg, vec![trace]).unwrap_err();
        assert!(
            matches!(err, RunError::AccessDenied { .. }),
            "{scheme}: got {err:?}"
        );
    }
}

#[test]
fn cb_overflow_degrades_to_untracked_syscalls() {
    // 40 pools attached in one tight burst exceed the 32-entry buffer: the
    // excess attaches run untracked but the program still completes and
    // every access is still protected.
    let mut reg = PmoRegistry::new();
    let pools: Vec<PmoId> = (0..40).map(|i| pool(&mut reg, &format!("p{i}"))).collect();
    let mut ops = Vec::new();
    for &pmo in &pools {
        ops.push(TraceOp::Attach {
            pmo,
            perm: Permission::ReadWrite,
        });
        ops.push(TraceOp::PmoAccess {
            oid: ObjectId::new(pmo, 0),
            kind: AccessKind::Write,
            tag: None,
        });
    }
    for &pmo in &pools {
        ops.push(TraceOp::Detach { pmo });
    }
    let report = run(
        Scheme::terp_full(),
        &mut reg,
        vec![ThreadTrace::from_ops(ops)],
    )
    .unwrap();
    assert!(
        report.cond.untracked_attach > 0,
        "buffer pressure must show"
    );
    assert_eq!(report.pmo_count, 40);
}

#[test]
fn deadlocked_basic_semantics_resolves_instead_of_hanging() {
    // Classic ABBA: thread 0 holds A and wants B; thread 1 holds B and
    // wants A. Basic semantics would deadlock; the runtime must resolve and
    // terminate.
    let mut reg = PmoRegistry::new();
    let a = pool(&mut reg, "a");
    let b = pool(&mut reg, "b");
    let mk = |first: PmoId, second: PmoId| {
        ThreadTrace::from_ops(vec![
            TraceOp::Attach {
                pmo: first,
                perm: Permission::Read,
            },
            TraceOp::Compute { instrs: 10_000 },
            TraceOp::Attach {
                pmo: second,
                perm: Permission::Read,
            },
            TraceOp::Detach { pmo: second },
            TraceOp::Detach { pmo: first },
        ])
    };
    let report = run(Scheme::BasicSemantics, &mut reg, vec![mk(a, b), mk(b, a)]).unwrap();
    assert!(report.blocked_cycles > 0, "some waiting must have happened");
    assert!(report.total_cycles > 0);
}

#[test]
fn zero_length_traces_are_fine() {
    let mut reg = PmoRegistry::new();
    let _ = pool(&mut reg, "idle");
    let report = run(
        Scheme::terp_full(),
        &mut reg,
        vec![ThreadTrace::new(), ThreadTrace::new()],
    )
    .unwrap();
    assert_eq!(report.total_cycles, 0);
    assert_eq!(report.overhead_fraction(), 0.0);
}

#[test]
fn executor_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Executor>();
    assert_send::<PmoRegistry>();
    assert_send::<ThreadTrace>();
    assert_send::<RunReport>();
}

#[test]
fn parallel_independent_runs_agree_with_serial() {
    // Drive four executors on scoped OS threads: simulation is
    // deterministic, so parallel results must equal serial ones.
    use terp_suite::terp_workloads::{whisper, Variant};
    let workloads: Vec<_> = whisper::all(whisper::WhisperScale::test())
        .into_iter()
        .take(4)
        .collect();

    let serial: Vec<u64> = workloads
        .iter()
        .map(|w| {
            let mut reg = w.build_registry();
            let traces = w.traces(
                Variant::Auto {
                    let_threshold: 4400,
                },
                42,
            );
            run(Scheme::terp_full(), &mut reg, traces)
                .unwrap()
                .total_cycles
        })
        .collect();

    let parallel: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(move || {
                    let mut reg = w.build_registry();
                    let traces = w.traces(
                        Variant::Auto {
                            let_threshold: 4400,
                        },
                        42,
                    );
                    run(Scheme::terp_full(), &mut reg, traces)
                        .unwrap()
                        .total_cycles
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(serial, parallel);
}

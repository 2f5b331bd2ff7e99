//! Drives the built `terp-analyze` binary: static-mode exit codes and JSON
//! shape, and trace mode over dumps of real traced service runs — an
//! injected two-client window overlap must come back as TERP-D201 with the
//! static cross-check attached, a partitioned run must come back clean.
//! Dumps go to a temp dir, never `results/`.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Arc, Barrier};

use terp_analysis::hb::{check_trace, cross_check};
use terp_analysis::Json;
use terp_core::config::Scheme;
use terp_pmo::{OpenMode, Permission};
use terp_service::{PmoServer, PmoService, ServiceConfig, TraceConfig};
use terp_trace::TraceSet;

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_terp-analyze"))
        .args(args)
        .output()
        .expect("run terp-analyze")
}

fn stdout_json(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(&text).unwrap_or_else(|e| panic!("stdout is not JSON ({e:?}): {text}"))
}

fn dump_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-analyze-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `workload` against a fully traced TT service and returns the trace
/// of the quiesced server (shutdown joins the sweeper first).
fn traced_run(workload: impl FnOnce(&Arc<PmoService>)) -> TraceSet {
    let server = PmoServer::start(
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_ew_target_us(500)
            .with_sweep_period_us(200)
            .with_trace(TraceConfig::full()),
    );
    let svc = server.service();
    let tracer = Arc::clone(svc.tracer().expect("config enabled the flight recorder"));
    workload(&svc);
    server.shutdown();
    tracer.snapshot()
}

#[test]
fn static_mode_exit_codes() {
    let clean = analyze(&["--suite", "whisper"]);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "auto-protected suite is clean"
    );

    let unprotected = analyze(&["--suite", "whisper", "--variant", "unprotected"]);
    assert_eq!(unprotected.status.code(), Some(1), "findings exit 1");
    assert!(String::from_utf8_lossy(&unprotected.stdout).contains("TERP-E103"));

    assert_eq!(analyze(&["--no-such-flag"]).status.code(), Some(2));
}

#[test]
fn json_format_parses_and_carries_schema_version() {
    let out = analyze(&["--suite", "all", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let doc = stdout_json(&out);
    assert_eq!(doc.get("schema_version").and_then(Json::as_num), Some(2.0));
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("static"));
    assert!(!doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .is_empty());
}

/// Two clients hold writable windows on one pool at the same time (the
/// barrier pins the overlap): the dump must replay to TERP-D201, carry the
/// static cross-check, and exit by the cross-check's soundness — D201 is a
/// warning, so a sound run exits 0.
#[test]
fn overlapping_windows_dump_reports_d201_and_cross_check() {
    let set = traced_run(|svc| {
        let shared = svc
            .create_pool("shared", 1 << 16, OpenMode::ReadWrite)
            .unwrap();
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for tid in 0..2 {
                let barrier = &barrier;
                s.spawn(move || {
                    svc.attach(tid, shared, Permission::ReadWrite).unwrap();
                    let oid = svc.alloc(tid, shared, 64).unwrap();
                    barrier.wait();
                    svc.write(tid, oid, &[0xAB; 8]).unwrap();
                    barrier.wait();
                    svc.free(tid, oid).unwrap();
                    svc.detach(tid, shared).unwrap();
                });
            }
        });
    });
    let hb = check_trace(&set);
    let sound = cross_check(&hb).is_sound();
    let fails = !sound || hb.diagnostics.error_count() > 0;

    let dir = dump_dir("shared");
    set.save(&dir).unwrap();
    let out = analyze(&[
        "--trace-dir",
        dir.to_str().unwrap(),
        "--diff-static",
        "--format",
        "json",
    ]);
    std::fs::remove_dir_all(&dir).ok();

    assert!(String::from_utf8_lossy(&out.stdout).contains("\"TERP-D201\""));
    let doc = stdout_json(&out);
    assert_eq!(doc.get("schema_version").and_then(Json::as_num), Some(2.0));
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("trace"));
    let diff = doc
        .get("cross_check")
        .expect("--diff-static adds cross_check");
    assert_eq!(diff.get("sound"), Some(&Json::Bool(sound)));
    assert!(!diff
        .get("dynamic_pools")
        .and_then(Json::as_arr)
        .unwrap()
        .is_empty());
    assert_eq!(out.status.code(), Some(i32::from(fails)));
}

#[test]
fn clean_partitioned_dump_exits_zero() {
    let set = traced_run(|svc| {
        let pools: Vec<_> = (0..2)
            .map(|i| {
                svc.create_pool(&format!("own-{i}"), 1 << 16, OpenMode::ReadWrite)
                    .unwrap()
            })
            .collect();
        std::thread::scope(|s| {
            for (tid, &pmo) in pools.iter().enumerate() {
                s.spawn(move || {
                    for _ in 0..20 {
                        svc.attach(tid, pmo, Permission::ReadWrite).unwrap();
                        let oid = svc.alloc(tid, pmo, 64).unwrap();
                        svc.write(tid, oid, &[tid as u8; 16]).unwrap();
                        svc.free(tid, oid).unwrap();
                        svc.detach(tid, pmo).unwrap();
                    }
                });
            }
        });
    });
    let dir = dump_dir("clean");
    set.save(&dir).unwrap();
    let out = analyze(&[
        "--trace-dir",
        dir.to_str().unwrap(),
        "--diff-static",
        "--deny-warnings",
        "--format",
        "json",
    ]);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(out.status.code(), Some(0), "no race, no warning, sound");
    let doc = stdout_json(&out);
    assert_eq!(doc.get("warnings").and_then(Json::as_num), Some(0.0));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("TERP-D20"));
}

#[test]
fn diff_static_without_trace_dir_is_bad_usage() {
    assert_eq!(analyze(&["--diff-static"]).status.code(), Some(2));
}

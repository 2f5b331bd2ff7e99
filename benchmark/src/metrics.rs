//! Every name the benchmark emits: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json` is this file rendered (a test holds the two
//! together).

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wire_rw",
        why: "loopback TCP to the in-memory service: net does nearly all the work, persist none, so a net change shows here and nowhere else",
    },
    Workload {
        name: "wire_durable",
        why: "the socket-to-fsync budget: fsync dominates the wire, so a WAL gain must survive the wire here and a net gain should barely move it",
    },
    Workload {
        name: "inproc_hot",
        why: "direct in-memory service calls, read-heavy: service/pmo/core do all the work; the no-change control for net and WAL changes",
    },
    Workload {
        name: "kv_durable",
        why: "persistent map and queue on the durable config, no net: each op is 1-5 log records, so it drives the log with multi-record commits",
    },
    Workload {
        name: "crash_recover",
        why: "fixed-count replicated durable writes, kill, recovery of byte-copies, failover: only here does a slower restart or failover show",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: share of the parent's median the metric may worsen by.
    /// Per-layer metrics have none.
    pub bound: Option<f64>,
    /// End-to-end: what it is. Per-layer: which end-to-end metric it should
    /// move, on which workload.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload from the untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "workload start to first timed op: start the system, create and fill pools; repeated, the median at the reference disk (durable) or the lower quartile as measured (in memory)"),
    e2e("tput_ops_s", "ops/s", Higher, 0.25,
        "rate of the load phase, one driver thread (wire: one connection, depth 32 / 16): mean over the middle half of the slices, at the reference CPU in memory and the reference disk when durable; crash_recover: of the fixed-count replicated load"),
    e2e("p50_us", "us", Lower, 0.25,
        "the phase's median latency at the reference machine: one request at depth 1 (wire), one window transaction of the load phase (inproc_hot, kv_durable, crash_recover)"),
    e2e("tput_flight_ops_s", "ops/s", Higher, 0.25,
        "the load phase again on a restarted instance with the flight recorder on (crash_recover: on the promoted follower)"),
    e2e("recover_ms", "ms", Lower, 0.25,
        "stop to serving again, lower quartile of the repetitions: cold start (in-memory) and reopen after clean shutdown (wire_durable, kv_durable) as measured, crash recovery of byte-copies of the killed directory at the reference CPU (crash_recover)"),
];

/// Reported by every workload from the traced run; 0 where the workload does
/// not exercise the layer.
pub const PER_LAYER: &[Metric] = &[
    // Whole-system figures reported from every run, bounded by nothing: on
    // one pinned CPU the first is the reciprocal of the rate, and the second
    // flips between two modes from run to run on the durable workloads.
    layer("cpu_us_per_op", "us", Lower,
        "process user+system CPU per op of the median slice of the load phase, generator included; moves with tput_ops_s"),
    layer("ew_avg_us", "us", Lower,
        "mean length of the exposure windows the service closed, median slice of the load phase; the paper's exposure quantity: throughput bought by holding windows open longer shows here"),
    // net: p50_us on wire_rw ~1:1, tput/cpu on wire_rw, <5 % on wire_durable,
    // nothing in process.
    layer("net.codec_ns_per_req", "ns", Lower, "p50_us, cpu_us_per_op on wire_rw"),
    layer("net.ping_rtt_p50_us", "us", Lower, "p50_us on wire_rw ~1:1"),
    layer("net.ping_rtt_p99_us", "us", Lower, "tail of the same; ungated"),
    layer("net.submit_ns_p50", "ns", Lower, "p50_us, cpu_us_per_op on wire_rw"),
    layer("net.wire_added_us_p50", "us", Lower, "p50_us on wire_rw ~1:1, <5% on wire_durable"),
    layer("net.rtt_p99_us", "us", Lower, "tail latency; ungated on purpose (moves +-30% run to run)"),
    layer("net.over_1ms_frac", "ratio", Lower, "tail latency; ungated"),
    layer("net.sat_depth_gain", "ratio", Higher, "tput_ops_s on wire_rw"),
    layer("net.open8k_p50_us", "us", Lower, "open-loop 8000 req/s diagnostic, timed from due time"),
    layer("net.open8k_p99_us", "us", Lower, "open-loop diagnostic"),
    layer("net.open8k_gen_late_p99_us", "us", Lower, "how late the open-loop generator itself ran"),
    // service: tput, p50, ew on inproc_hot; second order on wire_rw.
    layer("service.attach_ns_p50", "ns", Lower, "p50_us, tput_ops_s on inproc_hot"),
    layer("service.detach_ns_p50", "ns", Lower, "p50_us, tput_ops_s on inproc_hot"),
    layer("service.read_ns_p50", "ns", Lower, "p50_us, tput_ops_s on inproc_hot"),
    layer("service.write_ns_p50", "ns", Lower, "p50_us, tput_ops_s on inproc_hot"),
    layer("service.data_ns_p99", "ns", Lower, "tail of read+write calls; ungated"),
    layer("service.silent_frac", "ratio", Higher, "cpu_us_per_op, tput_ops_s on inproc_hot"),
    layer("service.attach_syscalls_per_kop", "count", Lower, "tput_ops_s, ew_avg_us on inproc_hot"),
    layer("service.randomizations_per_s", "1/s", Lower, "cpu_us_per_op on inproc_hot"),
    layer("service.ew_max_us", "us", Lower, "ew_avg_us"),
    layer("service.ew_max_over_target", "ratio", Lower, "ew_avg_us; the paper's one SLO"),
    layer("service.tew_avg_us", "us", Lower, "ew_avg_us"),
    layer("service.denials", "count", Lower, "failed ops: must stay 0"),
    layer("service.scale_2t", "ratio", Higher, "two driver threads over one, both on the one pinned CPU: what sharing the service costs, not what a second core buys"),
    layer("service.protect_overhead_frac", "ratio", Lower, "tput_ops_s on inproc_hot; the paper's headline overhead"),
    // persist: tput, p50 on kv_durable and wire_durable, recover_ms on
    // crash_recover, nothing in memory.
    layer("persist.write_added_us_p50", "us", Lower, "p50_us, tput_ops_s on wire_durable, kv_durable"),
    layer("persist.attach_added_us_p50", "us", Lower, "p50_us, tput_ops_s on wire_durable"),
    layer("persist.detach_added_us_p50", "us", Lower, "p50_us, tput_ops_s on wire_durable"),
    layer("persist.durable_over_mem", "ratio", Lower, "tput_ops_s on kv_durable; ROADMAP target <= 3"),
    layer("persist.records_per_op", "count", Lower, "tput_ops_s on durable workloads, recover_ms on crash_recover"),
    layer("persist.recover_krecords_per_s", "1/s", Higher, "recover_ms on crash_recover"),
    layer("persist.windows_resealed_ok", "count", Higher, "1 when recovery resealed exactly the windows open at the kill"),
    layer("persist.torn_tails", "count", Lower, "recover_ms"),
    layer("persist.txns_rolled_back", "count", Lower, "recover_ms"),
    layer("persist.drain_ms", "ms", Lower, "clean shutdown incl. checkpoint; recover_ms on wire_durable, kv_durable"),
    layer("persist.reopen_clean_ms", "ms", Lower, "recover_ms on wire_durable, kv_durable"),
    layer("disk_bytes_per_user_byte", "ratio", Lower, "bytes under the data dir at stop per acked payload byte; write amplification of the log"),
    // structures: tput, p50 on kv_durable only.
    layer("structures.map_get_us_p50", "us", Lower, "p50_us, tput_ops_s on kv_durable"),
    layer("structures.map_insert_us_p50", "us", Lower, "p50_us, tput_ops_s on kv_durable"),
    layer("structures.map_remove_us_p50", "us", Lower, "p50_us, tput_ops_s on kv_durable"),
    layer("structures.queue_enq_us_p50", "us", Lower, "p50_us, tput_ops_s on kv_durable"),
    layer("structures.queue_deq_us_p50", "us", Lower, "p50_us, tput_ops_s on kv_durable"),
    layer("structures.self_frac", "ratio", Lower, "share of a structure op not spent in memory calls"),
    layer("structures.mem_calls_per_op", "count", Lower, "p50_us, tput_ops_s on kv_durable"),
    layer("structures.cas_retry_frac", "ratio", Lower, "from a two-client phase of the traced run; the end-to-end load has one client"),
    // repl: crash_recover only.
    layer("repl.apply_lag_p50_us", "us", Lower, "tput_ops_s on crash_recover (second order)"),
    layer("repl.apply_lag_p99_us", "us", Lower, "ungated tail"),
    layer("repl.bootstrap_ms", "ms", Lower, "setup_s on crash_recover"),
    layer("repl.failover_ms", "ms", Lower, "kill to first accepted write on the promoted follower, once"),
    // trace: tput_flight_ops_s on inproc_hot.
    layer("trace.flight_overhead_frac", "ratio", Lower, "tput_flight_ops_s on inproc_hot"),
    layer("trace.events_per_op", "count", Lower, "tput_flight_ops_s on inproc_hot"),
    layer("trace.dropped_frac", "ratio", Lower, "recorder ring overwrite share"),
    // The benchmark itself.
    layer("bench.trace_overhead_frac", "ratio", Lower, "untraced / traced throughput - 1"),
    layer("bench.span_coverage_frac", "ratio", Higher, "sum of span self times / sum of request spans; 1 when spans account for the whole request"),
    layer("bench.driver_self_frac", "ratio", Lower, "share of a request span spent in the benchmark's own loop and generator"),
    layer("bench.threads", "count", Lower, "driver plus system threads while loaded"),
    layer("bench.oversubscribed", "count", Lower, "1 when those threads exceed the CPUs they run on: always, the run is pinned to one"),
    layer("fail_frac", "ratio", Lower, "failed, refused or wrong-answer ops / attempted; any value above 0 fails the run"),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The driver's contract file, generated.
pub fn benchmark_json(run_seconds: u32) -> Json {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// Seconds one driver run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 18;

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = find("setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "set-up gets the largest bound");
    }

    /// `list` prints this registry; the contract file must say the same.
    #[test]
    fn benchmark_json_is_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(on_disk, benchmark_json(RUN_SECONDS));
        assert!(std::fs::metadata(path).unwrap().len() <= 64 * 1024);
        let keys: Vec<&str> = on_disk.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for part in on_disk.get("command").unwrap().as_arr() {
            let s = part.as_str().unwrap();
            assert!(s.len() <= 200 && !s.starts_with('/') && !s.contains(".."));
        }
    }
}

//! Offline happens-before race detection over recorded traces
//! (`TERP-D201`..`TERP-D204`).
//!
//! This is the dynamic counterpart of the static W002 check: instead of
//! asking which window overlaps are *possible* over the call graph, it asks
//! which overlaps and window violations actually *happened* in a recorded
//! execution of the service (`terp-trace` dumps).
//!
//! ## Partial-order reconstruction
//!
//! Each thread's retained event stream is totally ordered (program order).
//! Cross-thread order comes from four kinds of recorded sync edges:
//!
//! | edge | source event | sink event |
//! |------|--------------|------------|
//! | shard mutex | `LockRelease{obj, k}` | `LockAcquire{obj, k'}` for `k < k'` |
//! | seqlock | `Publish{pmo, e'}` | `Read`/`Write` on `pmo` validating epoch `e >= e'` |
//! | sweeper park | `Unpark{token k}` | `Wakeup{token n}` for `k <= n` |
//! | net dispatch | `NetRecv{conn, req}` | `NetExec{conn, req}` (same pair) |
//!
//! The checker performs a topological sweep: a thread's next event is
//! processed only once every edge source it depends on has been processed,
//! and processing joins the source threads' vector clocks into the sink
//! thread's. Each event then carries the FastTrack-style epoch
//! `(thread, local count)`, and two events are concurrent iff neither's
//! epoch is covered by the other's clock.
//!
//! ## What gets flagged
//!
//! * **TERP-D201** (warning) — *witnessed* concurrent cross-thread windows
//!   on one pool with at least one writable: the dynamic analogue of W002.
//!   One diagnostic per pool.
//! * **TERP-D202** (error) — a stranger operation: a data access by a
//!   client that never opened a window on the pool.
//! * **TERP-D203** (error) — use-after-close: a data access ordered
//!   (happens-before) *after* the client's window on the pool closed.
//!   An access merely concurrent with the close is benign — that is the
//!   seqlock's snapshot-validate semantics, not a bug.
//! * **TERP-D204** (warning) — the trace is incomplete (ring overwrite,
//!   torn slots from a non-quiescent dump, or unresolved sync edges), so
//!   coverage is partial.
//!
//! ## Flight-recorder truncation
//!
//! Rings overwrite oldest-first, so a dump may be a *suffix* of each
//! thread's history. The checker restores soundness by cutting every stream
//! at the maximum first-retained timestamp over the threads that dropped
//! events (all streams share the monotonic service clock): past the cut,
//! every attach/detach and every lock event that orders them is present, so
//! D201/D203 verdicts on the analyzed suffix are exact. Stranger detection
//! (D202) needs full history and is disabled — and reported as such via
//! D204 — on truncated traces.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use terp_compiler::builder::FunctionBuilder;
use terp_pmo::{AccessKind, Permission, PmoId};
use terp_trace::{Event, EventKind, PoolId, TraceSet, VectorClock};

use crate::diag::{Diagnostic, DiagnosticBag, Severity, Span};
use crate::program::Program;
use crate::races;

/// Cap on rendered diagnostics per code; counts in [`HbStats`] are exact.
const MAX_REPORTED: usize = 16;

/// Summary counters from one checker run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HbStats {
    /// Threads in the trace set.
    pub threads: usize,
    /// Events analyzed (after the consistency cut).
    pub events: usize,
    /// Events lost to ring overwrite before the dump.
    pub dropped: u64,
    /// Slots discarded as torn during the dump.
    pub torn: u64,
    /// Retained events discarded before the consistency cut.
    pub discarded: usize,
    /// Events force-processed because a sync-edge source was missing.
    pub sync_breaks: u64,
    /// Pools with witnessed concurrent cross-thread windows (D201).
    pub window_races: usize,
    /// Stranger operations (D202).
    pub stranger_ops: usize,
    /// Use-after-close operations (D203).
    pub use_after_close: usize,
}

impl HbStats {
    /// Total race findings — the count the CI gates assert is zero on
    /// clean runs.
    pub fn races(&self) -> usize {
        self.window_races + self.stranger_ops + self.use_after_close
    }
}

/// The checker's output: diagnostics plus machine-readable summaries.
#[derive(Debug, Clone)]
pub struct HbReport {
    /// D2xx findings, ready for human or JSON rendering.
    pub diagnostics: DiagnosticBag,
    /// Summary counters.
    pub stats: HbStats,
    /// Pools flagged by D201, for diffing against the static W002 set.
    pub racy_pools: BTreeSet<PoolId>,
    /// Per-thread window profiles observed in the trace
    /// (`pool -> ever writable`), the dynamic analogue of
    /// [`races::window_profile`].
    pub profiles: Vec<BTreeMap<PoolId, bool>>,
}

/// One window's lifecycle on one pool, as replayed by the checker.
#[derive(Debug, Clone)]
struct Win {
    thread: usize,
    client: u64,
    writable: bool,
    /// `None` while open; the closing thread's clock once closed.
    closed: Option<VectorClock>,
}

struct LockState {
    done: usize,
    cum: VectorClock,
}

#[derive(Default)]
struct PubState {
    done: usize,
    /// Cumulative clock keyed by publish epoch, for `epoch <= e` joins.
    by_epoch: BTreeMap<u64, VectorClock>,
}

struct Checker {
    tids: Vec<u32>,
    evs: Vec<Vec<Event>>,
    clocks: Vec<VectorClock>,
    /// Pre-scanned release seqs per lock (sorted).
    rel_seqs: HashMap<u32, Vec<u64>>,
    /// Pre-scanned publish epochs per pool (sorted).
    pub_epochs: HashMap<PoolId, Vec<u64>>,
    /// Pre-scanned unpark tokens (sorted).
    unpark_tokens: Vec<u64>,
    /// Pre-scanned net-dispatch sources present in the analyzed region.
    net_recv_present: HashSet<(u32, u64)>,
    locks: HashMap<u32, LockState>,
    pubs: HashMap<PoolId, PubState>,
    unparks: BTreeMap<u64, VectorClock>,
    /// Reader-thread clocks at each processed `NetRecv`, keyed by
    /// `(conn, req)`; joined into the executing thread at `NetExec`.
    net_recvs: HashMap<(u32, u64), VectorClock>,
    windows: HashMap<PoolId, Vec<Win>>,
    profiles: Vec<BTreeMap<PoolId, bool>>,
    racy_pools: BTreeSet<PoolId>,
    stats: HbStats,
    diags: DiagnosticBag,
    /// Stranger detection needs the full history; off on truncated traces.
    d202_enabled: bool,
}

fn count_lt(sorted: &[u64], x: u64) -> usize {
    sorted.partition_point(|&v| v < x)
}

fn count_le(sorted: &[u64], x: u64) -> usize {
    sorted.partition_point(|&v| v <= x)
}

impl Checker {
    fn thread_label(&self, t: usize) -> String {
        format!("thread-{}", self.tids[t])
    }

    fn ready(&self, ev: &Event) -> bool {
        match ev.kind {
            EventKind::LockAcquire { obj, seq } => {
                let needed = self
                    .rel_seqs
                    .get(&obj)
                    .map_or(0, |seqs| count_lt(seqs, seq));
                self.locks.get(&obj).map_or(0, |s| s.done) >= needed
            }
            EventKind::Read { pmo, epoch, .. } | EventKind::Write { pmo, epoch, .. }
                if epoch > 0 =>
            {
                let needed = self
                    .pub_epochs
                    .get(&pmo)
                    .map_or(0, |eps| count_le(eps, epoch));
                self.pubs.get(&pmo).map_or(0, |s| s.done) >= needed
            }
            EventKind::Wakeup { token } => {
                let needed = count_le(&self.unpark_tokens, token);
                self.unparks.range(..=token).count() >= needed
            }
            EventKind::NetExec { conn, req } => {
                !self.net_recv_present.contains(&(conn, req))
                    || self.net_recvs.contains_key(&(conn, req))
            }
            _ => true,
        }
    }

    fn process(&mut self, t: usize, ev: Event) {
        // Join incoming sync edges first, then advance this thread's own
        // component: the event's epoch is its position *after* the joins.
        match ev.kind {
            EventKind::LockAcquire { obj, .. } => {
                if let Some(cum) = self.locks.get(&obj).map(|s| s.cum.clone()) {
                    self.clocks[t].join(&cum);
                }
            }
            EventKind::Read { pmo, epoch, .. } | EventKind::Write { pmo, epoch, .. }
                if epoch > 0 =>
            {
                let cum = self
                    .pubs
                    .get(&pmo)
                    .and_then(|s| s.by_epoch.range(..=epoch).next_back())
                    .map(|(_, c)| c.clone());
                if let Some(cum) = cum {
                    self.clocks[t].join(&cum);
                }
            }
            EventKind::Wakeup { token } => {
                let sources: Vec<VectorClock> = self
                    .unparks
                    .range(..=token)
                    .map(|(_, c)| c.clone())
                    .collect();
                for c in &sources {
                    self.clocks[t].join(c);
                }
            }
            EventKind::NetExec { conn, req } => {
                let cum = self.net_recvs.get(&(conn, req)).cloned();
                if let Some(cum) = cum {
                    self.clocks[t].join(&cum);
                }
            }
            _ => {}
        }
        self.clocks[t].tick(t);

        match ev.kind {
            EventKind::LockRelease { obj, .. } => {
                let n = self.clocks.len();
                let s = self.locks.entry(obj).or_insert_with(|| LockState {
                    done: 0,
                    cum: VectorClock::new(n),
                });
                s.cum.join(&self.clocks[t]);
                s.done += 1;
            }
            EventKind::Publish { pmo, epoch } => {
                let n = self.clocks.len();
                let s = self.pubs.entry(pmo).or_default();
                let mut cum = s
                    .by_epoch
                    .values()
                    .next_back()
                    .cloned()
                    .unwrap_or_else(|| VectorClock::new(n));
                cum.join(&self.clocks[t]);
                s.by_epoch.insert(epoch, cum);
                s.done += 1;
            }
            EventKind::Unpark { token } => {
                self.unparks.insert(token, self.clocks[t].clone());
            }
            EventKind::NetRecv { conn, req } => {
                self.net_recvs.insert((conn, req), self.clocks[t].clone());
            }
            EventKind::Attach {
                pmo,
                client,
                writable,
            } => {
                *self.profiles[t].entry(pmo).or_insert(false) |= writable;
                self.open_window(t, pmo, client, writable);
            }
            EventKind::Grant {
                pmo,
                client: _,
                writable,
            } => {
                *self.profiles[t].entry(pmo).or_insert(false) |= writable;
            }
            EventKind::Detach { pmo, client } | EventKind::Revoke { pmo, client } => {
                self.close_window(t, pmo, client);
            }
            EventKind::Expire { pmo } => {
                // Forced unmap: close every window still open on the pool
                // at the sweeper's clock.
                let clock = self.clocks[t].clone();
                if let Some(list) = self.windows.get_mut(&pmo) {
                    for win in list.iter_mut().filter(|w| w.closed.is_none()) {
                        win.closed = Some(clock.clone());
                    }
                }
            }
            EventKind::Read { pmo, client, .. } | EventKind::Write { pmo, client, .. } => {
                self.check_data_op(t, &ev, pmo, client);
            }
            _ => {}
        }
    }

    fn open_window(&mut self, t: usize, pmo: PoolId, client: u64, writable: bool) {
        let attach_clock = self.clocks[t].clone();
        let list = self.windows.entry(pmo).or_default();
        // This client's previous closed window is superseded.
        list.retain(|w| !(w.client == client && w.closed.is_some()));
        let mut race_with: Option<Win> = None;
        for win in list.iter() {
            if win.thread == t {
                continue;
            }
            // An open window is concurrent with this attach (its close, if
            // any, has not been processed, so it cannot happen-before us);
            // a closed one is concurrent unless its close is covered by
            // our clock.
            let concurrent = match &win.closed {
                None => true,
                Some(cc) => !cc.le(&attach_clock),
            };
            if concurrent && (writable || win.writable) {
                race_with = Some(win.clone());
                break;
            }
        }
        list.push(Win {
            thread: t,
            client,
            writable,
            closed: None,
        });
        if let Some(other) = race_with {
            if self.racy_pools.insert(pmo) {
                self.stats.window_races += 1;
                if self.stats.window_races <= MAX_REPORTED {
                    let (wa, wb) = (perm_word(writable), perm_word(other.writable));
                    let label = self.thread_label(t);
                    let other_label = self.thread_label(other.thread);
                    self.diags.push(
                        Diagnostic::new(
                            "TERP-D201",
                            Severity::Warning,
                            Span::function(label.clone()),
                            format!(
                                "{label} (client {client}) opened a {wa} window on pool \
                                 {pmo} concurrently with {other_label} (client {c2}) \
                                 holding a {wb} window on it",
                                c2 = other.client,
                            ),
                        )
                        .with_note(
                            "witnessed dynamic counterpart of TERP-W002: the overlap \
                             happened in this execution, it is not merely reachable",
                        ),
                    );
                }
            }
        }
    }

    fn close_window(&mut self, t: usize, pmo: PoolId, client: u64) {
        let clock = self.clocks[t].clone();
        if let Some(list) = self.windows.get_mut(&pmo) {
            if let Some(win) = list
                .iter_mut()
                .find(|w| w.client == client && w.closed.is_none())
            {
                win.closed = Some(clock);
            }
        }
    }

    fn check_data_op(&mut self, t: usize, ev: &Event, pmo: PoolId, client: u64) {
        let op = match ev.kind {
            EventKind::Write { .. } => "write",
            _ => "read",
        };
        let win = self
            .windows
            .get(&pmo)
            .and_then(|list| list.iter().rev().find(|w| w.client == client));
        match win {
            Some(Win { closed: None, .. }) => {}
            Some(Win {
                closed: Some(cc), ..
            }) => {
                if cc.le(&self.clocks[t]) {
                    self.stats.use_after_close += 1;
                    if self.stats.use_after_close <= MAX_REPORTED {
                        let label = self.thread_label(t);
                        self.diags.push(
                            Diagnostic::new(
                                "TERP-D203",
                                Severity::Error,
                                Span::function(label.clone()),
                                format!(
                                    "{label}: {op} on pool {pmo} by client {client} is \
                                     ordered after the client's window closed"
                                ),
                            )
                            .with_note(
                                "an access merely concurrent with the close is the \
                                 seqlock's benign snapshot-validate path; this one \
                                 happens-before-after it",
                            ),
                        );
                    }
                }
            }
            None => {
                if self.d202_enabled {
                    self.stats.stranger_ops += 1;
                    if self.stats.stranger_ops <= MAX_REPORTED {
                        let label = self.thread_label(t);
                        self.diags.push(
                            Diagnostic::new(
                                "TERP-D202",
                                Severity::Error,
                                Span::function(label.clone()),
                                format!(
                                    "{label}: stranger {op} on pool {pmo} — client \
                                     {client} never opened a window on it"
                                ),
                            )
                            .with_note(
                                "every data access must sit inside an attach/detach \
                                 window for its client (paper invariant)",
                            ),
                        );
                    }
                }
            }
        }
    }
}

fn perm_word(writable: bool) -> &'static str {
    if writable {
        "writable"
    } else {
        "read-only"
    }
}

/// Replays a trace set, reconstructs the happens-before order, and reports
/// witnessed window races and invariant violations as TERP-D2xx
/// diagnostics.
pub fn check_trace(set: &TraceSet) -> HbReport {
    let n = set.threads.len();
    let mut stats = HbStats {
        threads: n,
        dropped: set.total_dropped(),
        torn: set.total_torn(),
        ..HbStats::default()
    };
    let mut diags = DiagnosticBag::new();

    // A torn dump (non-quiescent snapshot) can have gaps *anywhere* in a
    // stream, which invalidates the program-order replay; degrade to a
    // coverage warning rather than risk false verdicts.
    if stats.torn > 0 {
        stats.events = set.total_events();
        diags.push(incomplete_diag(
            &stats,
            "torn slots from a non-quiescent dump",
        ));
        return HbReport {
            diagnostics: diags,
            stats,
            racy_pools: BTreeSet::new(),
            profiles: vec![BTreeMap::new(); n],
        };
    }

    // Consistency cut: ring overwrite loses each stream's *prefix*, so
    // analyzing only events at or after the latest first-retained timestamp
    // of any lossy stream guarantees every cross-thread sync edge inside
    // the analyzed region has its source present.
    let cut = set
        .threads
        .iter()
        .filter(|t| t.dropped > 0)
        .filter_map(|t| t.events.first().map(|e| e.ts_ns))
        .max()
        .unwrap_or(0);
    let mut evs: Vec<Vec<Event>> = Vec::with_capacity(n);
    for t in &set.threads {
        let keep: Vec<Event> = t
            .events
            .iter()
            .filter(|e| e.ts_ns >= cut)
            .copied()
            .collect();
        stats.discarded += t.events.len() - keep.len();
        evs.push(keep);
    }
    stats.events = evs.iter().map(Vec::len).sum();

    // Pre-scan the sync-edge sources present in the analyzed region so
    // readiness never waits on an edge the trace cannot satisfy.
    let mut rel_seqs: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut pub_epochs: HashMap<PoolId, Vec<u64>> = HashMap::new();
    let mut unpark_tokens: Vec<u64> = Vec::new();
    let mut net_recv_present: HashSet<(u32, u64)> = HashSet::new();
    for stream in &evs {
        for ev in stream {
            match ev.kind {
                EventKind::LockRelease { obj, seq } => rel_seqs.entry(obj).or_default().push(seq),
                EventKind::Publish { pmo, epoch } => pub_epochs.entry(pmo).or_default().push(epoch),
                EventKind::Unpark { token } => unpark_tokens.push(token),
                EventKind::NetRecv { conn, req } => {
                    net_recv_present.insert((conn, req));
                }
                _ => {}
            }
        }
    }
    for seqs in rel_seqs.values_mut() {
        seqs.sort_unstable();
    }
    for eps in pub_epochs.values_mut() {
        eps.sort_unstable();
    }
    unpark_tokens.sort_unstable();

    let mut ck = Checker {
        tids: set.threads.iter().map(|t| t.tid).collect(),
        evs,
        clocks: (0..n).map(|_| VectorClock::new(n)).collect(),
        rel_seqs,
        pub_epochs,
        unpark_tokens,
        net_recv_present,
        locks: HashMap::new(),
        pubs: HashMap::new(),
        unparks: BTreeMap::new(),
        net_recvs: HashMap::new(),
        windows: HashMap::new(),
        profiles: vec![BTreeMap::new(); n],
        racy_pools: BTreeSet::new(),
        stats,
        diags,
        d202_enabled: cut == 0,
    };

    // Topological sweep over the per-thread streams.
    let mut pos = vec![0usize; n];
    loop {
        let mut progressed = false;
        for (t, p) in pos.iter_mut().enumerate() {
            while *p < ck.evs[t].len() {
                let ev = ck.evs[t][*p];
                if !ck.ready(&ev) {
                    break;
                }
                ck.process(t, ev);
                *p += 1;
                progressed = true;
            }
        }
        if (0..n).all(|t| pos[t] == ck.evs[t].len()) {
            break;
        }
        if !progressed {
            // A sync-edge source is missing (e.g. lost to a mid-run crash):
            // force the globally earliest pending event so the sweep
            // terminates, and flag the trace as degraded.
            let t = (0..n)
                .filter(|&t| pos[t] < ck.evs[t].len())
                .min_by_key(|&t| ck.evs[t][pos[t]].ts_ns)
                .expect("some thread is pending");
            ck.stats.sync_breaks += 1;
            let ev = ck.evs[t][pos[t]];
            ck.process(t, ev);
            pos[t] += 1;
        }
    }

    let Checker {
        mut stats,
        mut diags,
        racy_pools,
        profiles,
        ..
    } = ck;
    if stats.dropped > 0 || stats.sync_breaks > 0 {
        diags.push(incomplete_diag(
            &stats,
            "ring overwrite truncated the streams",
        ));
    }
    stats.window_races = racy_pools.len();
    diags.sort();
    HbReport {
        diagnostics: diags,
        stats,
        racy_pools,
        profiles,
    }
}

fn incomplete_diag(stats: &HbStats, why: &str) -> Diagnostic {
    Diagnostic::new(
        "TERP-D204",
        Severity::Warning,
        Span::function("trace"),
        format!(
            "trace incomplete ({why}): {} events dropped, {} torn, {} discarded \
             before the consistency cut, {} unresolved sync edges",
            stats.dropped, stats.torn, stats.discarded, stats.sync_breaks
        ),
    )
    .with_note(
        "race verdicts cover only the analyzed suffix; stranger detection \
         (TERP-D202) is disabled on incomplete traces",
    )
}

/// The static↔dynamic diff (`terp-analyze --trace-dir --diff-static`).
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// W002 diagnostics over the per-thread window profiles synthesized
    /// from the trace.
    pub static_report: DiagnosticBag,
    /// Pools the static analyzer flags as contended.
    pub static_pools: BTreeSet<PoolId>,
    /// Pools the dynamic checker witnessed races on (D201).
    pub dynamic_pools: BTreeSet<PoolId>,
    /// Witnessed dynamically but *not* statically flagged — each one is an
    /// analyzer soundness bug.
    pub dynamic_only: Vec<PoolId>,
    /// Statically flagged but never witnessed — candidate false positives
    /// (or under-exercised schedules).
    pub static_only: Vec<PoolId>,
}

impl CrossCheck {
    /// True when every witnessed race was also statically predicted — the
    /// soundness direction of the diff.
    pub fn is_sound(&self) -> bool {
        self.dynamic_only.is_empty()
    }
}

/// Diffs a dynamic report against the static W002 analysis of the same
/// execution's window profiles: each traced thread's observed
/// (pool, permission) profile is lowered to a straight-line IR program
/// (attach / access / detach per pool) and fed to the *real*
/// [`races::check_thread_races`], so both sides of the diff share one
/// definition of "contended".
pub fn cross_check(report: &HbReport) -> CrossCheck {
    let programs: Vec<Program> = report
        .profiles
        .iter()
        .enumerate()
        .map(|(t, profile)| {
            let mut b = FunctionBuilder::new(&format!("thread-{t}"));
            for (&pool, &writable) in profile {
                let Some(pmo) = PmoId::new(pool) else {
                    continue; // out of the IR's 10-bit id space
                };
                let (perm, kind) = if writable {
                    (Permission::ReadWrite, AccessKind::Write)
                } else {
                    (Permission::Read, AccessKind::Read)
                };
                b.attach(pmo, perm);
                b.pmo_access(pmo, kind, 1);
                b.detach(pmo);
            }
            Program::single(b.finish())
        })
        .collect();
    let static_report = races::check_thread_races(&programs);
    let profiles: Vec<_> = programs.iter().map(races::window_profile).collect();
    let static_pools: BTreeSet<PoolId> = races::contended_pools(&profiles)
        .into_iter()
        .map(|p| p.raw())
        .collect();
    let dynamic_pools = report.racy_pools.clone();
    let dynamic_only = dynamic_pools.difference(&static_pools).copied().collect();
    let static_only = static_pools.difference(&dynamic_pools).copied().collect();
    CrossCheck {
        static_report,
        static_pools,
        dynamic_pools,
        dynamic_only,
        static_only,
    }
}

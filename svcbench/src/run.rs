//! One workload in one process: set-up, the closed-loop clients, the
//! correctness checks, and (traced runs) the per-layer counters, spans
//! and single-thread ladder.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tm_service::{ShardedKv, Zipf};
use tm_stm::prelude::*;
use tm_stm::tl2::Tl2Kind;

use crate::measure::{peak_rss_mb, request_self_times, NsHist, Span, SpanKind};
use crate::spec::{key_set, key_set_diff, Class, Req, RequestGen, Spec};

/// Closed-loop clients: the box has 2 cores, and each client is a thread
/// that blocks until its transaction returns.
pub const CLIENTS: usize = 2;
/// Instance builds (+ prefill) per run; `setup_s` is their median. A fixed
/// count: each dropped instance leaves some resident memory behind (about
/// 0.25 MB for the small store), so `peak_rss_mb` grows with the number of
/// builds and must not depend on how many fit in a time budget.
const SETUP_REPS: usize = 15;
/// Closed-loop traffic before timing starts, so caches fill and the
/// contention governor settles.
const WARMUP: Duration = Duration::from_secs(1);
/// The timed span is cut into rounds of about this length, and every
/// end-to-end metric is a median over the quiet rounds (`quiet_rounds`),
/// so a burst of host noise moves a few rounds, not the result. Traced runs alternate untraced and
/// traced rounds (U T U T ...), so the tracing overhead is measured under
/// the same host conditions.
const ROUND_S: f64 = 1.0;
/// Latency percentiles kept per round and client, in per mille.
const PCTS: [u64; 3] = [500, 900, 990];
/// Traced runs keep the spans of every `SPAN_STRIDE`-th request, up to
/// `SPAN_CAP` spans per client.
const SPAN_STRIDE: u64 = 16;
const SPAN_CAP: usize = 1 << 15;

/// The pinned instance configuration: TL2 under the self-tuning
/// governor, driven cooperatively, with telemetry at its default and
/// fault injection off, whatever `TM_STM_DRIVER`, `TM_STM_TRACE` and
/// `TM_STM_CHAOS` say.
pub fn config(nregs: usize) -> StmConfig {
    StmConfig::auto(nregs, CLIENTS)
        .grace_driver(DriverMode::Cooperative)
        .trace(TraceConfig::default())
        .chaos_off()
}

fn describe(cfg: &StmConfig) -> String {
    format!(
        "policy=tl2 storage={:?} clock={:?} driver={} trace_capacity={} chaos={:?} nregs={} nthreads={}",
        cfg.storage,
        cfg.clock,
        cfg.driver.label(),
        cfg.trace.capacity,
        cfg.chaos,
        cfg.nregs,
        cfg.nthreads
    )
}

/// The store's registers, then one session `TVar` per client, then one
/// scratch register the ladder's write rung uses.
struct Instance {
    stm: Tl2Stm,
    typed: TypedStm<Tl2Kind>,
    kv: ShardedKv,
    sessions: Vec<TVar<u64>>,
    scratch: usize,
}

fn nregs(spec: &Spec) -> usize {
    ShardedKv::regs_needed(spec.shards, spec.keys_per_shard) + CLIENTS + 1
}

fn build(spec: &Spec, keys: &[u64]) -> Instance {
    let kv_regs = ShardedKv::regs_needed(spec.shards, spec.keys_per_shard);
    let stm = Tl2Stm::with_config(config(nregs(spec)));
    let typed = TypedStm::over(stm.clone(), kv_regs);
    let sessions = (0..CLIENTS).map(|_| typed.new_tvar(0u64)).collect();
    let kv = ShardedKv::new(0, spec.shards, spec.keys_per_shard);
    let mut h = stm.handle(0);
    for &k in keys {
        kv.put(&mut h, k, k);
    }
    Instance {
        stm,
        typed,
        kv,
        sessions,
        scratch: kv_regs + CLIENTS,
    }
}

struct Shared<'a> {
    spec: &'a Spec,
    seed: u64,
    inst: &'a Instance,
    keys: &'a [u64],
    zipf: Option<&'a Zipf>,
    trace: bool,
    /// The CPU each client is pinned to, when there is one per client.
    pin: [Option<usize>; CLIENTS],
    /// Timed rounds in this run.
    rounds: usize,
    /// 0 = warm-up, `1..=rounds` = the timed rounds, `rounds + 1` = stop.
    /// Relaxed everywhere: the phase publishes no other data.
    phase: AtomicUsize,
    epoch: Instant,
}

impl Shared<'_> {
    fn traced(&self, round: usize) -> bool {
        self.trace && round >= 1 && round <= self.rounds && round.is_multiple_of(2)
    }
}

/// The shard client `c` privatizes for a scan drawn on `shard`: the one
/// of the same pair that `c` owns (client `c` owns the shards `s` with
/// `s % CLIENTS == c`). Two scans then never meet on a shard's bulk-owner
/// guard, a blocking mutex whose wake-up latency is set by the host, while
/// both clients' point ops still run into every frozen shard.
fn scan_shard(shard: usize, c: usize) -> usize {
    shard - shard % CLIENTS + c
}

/// Issue client `c`'s store call for one request; returns its start, end,
/// and whether its output checks passed.
fn execute(sh: &Shared, h: &mut Tl2Handle, c: usize, req: Req) -> (Instant, Instant, bool) {
    let kv = &sh.inst.kv;
    let t0 = Instant::now();
    match req.class {
        Class::Get => {
            let v = kv.get(h, req.key);
            // Every drawn key was prefilled and nothing removes keys.
            (t0, Instant::now(), v.is_some())
        }
        Class::Put => {
            kv.put(h, req.key, req.arg);
            (t0, Instant::now(), true)
        }
        Class::Rmw => {
            black_box(kv.rmw(h, req.key, req.arg >> 56));
            (t0, Instant::now(), true)
        }
        Class::Scan => {
            let shard = scan_shard(kv.shard_of(req.key), c);
            let (frozen, entries, anomalies) = kv.privatize_and_scan(h, shard);
            frozen.publish_back(h);
            let t1 = Instant::now();
            let ok = anomalies == 0 && entries.len() as u64 == sh.spec.prefill_per_shard();
            (t0, t1, ok)
        }
        Class::Snapshot => {
            let (entries, anomalies) = kv.snapshot_all(h);
            let t1 = Instant::now();
            let ok = anomalies == 0 && entries.len() as u64 == sh.spec.prefill_total();
            (t0, t1, ok)
        }
    }
}

/// The request's session write: one typed transaction on the client's own
/// `TVar`, on the same thread slot as the store call.
fn bump(th: &mut TypedHandle<Tl2Kind>, session: &TVar<u64>) {
    th.atomically(|tx| {
        let v = tx.read(session)?;
        tx.write(session, v + 1)
    });
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

fn hists() -> Vec<NsHist> {
    Class::ALL.iter().map(|_| NsHist::new()).collect()
}

/// One client's view of one round.
#[derive(Clone, Default)]
struct Round {
    requests: u64,
    /// Store-call latency samples per class (untraced timed rounds only).
    samples: [u64; 5],
    /// The `PCTS` percentiles of those samples per class, in ns (0 without
    /// samples).
    pct: [[u64; 3]; 5],
}

impl Round {
    /// Keep the percentiles of this round's samples and empty `hist` for
    /// the next round: only one set of buffers per client, so the sample
    /// buffers take the same memory however many rounds a run has.
    fn close(&mut self, hist: &mut [NsHist]) {
        for (i, h) in hist.iter_mut().enumerate() {
            self.samples[i] = h.count();
            self.pct[i] = PCTS.map(|pm| h.percentile(pm).unwrap_or(0));
            h.clear();
        }
    }
}

struct ClientOut {
    pinned: bool,
    /// Requests issued in every phase (the session `TVar` must match).
    issued: u64,
    failed: u64,
    /// Indexed by phase: 0 = warm-up, then the timed rounds.
    rounds: Vec<Round>,
    traced: Traced,
}

/// What one client saw during the traced rounds.
struct Traced {
    hist: Vec<NsHist>,
    bump: NsHist,
    /// Sum of request span durations.
    busy_ns: u64,
    /// `Stats::retries` deltas around each store call, per class.
    retries: [u64; 5],
    /// The handle's `Stats` deltas over the traced rounds.
    stats: Stats,
    spans: Vec<Span>,
}

impl Traced {
    fn new(on: bool) -> Self {
        Traced {
            hist: if on { hists() } else { Vec::new() },
            bump: NsHist::new(),
            busy_ns: 0,
            retries: [0; 5],
            stats: Stats::default(),
            spans: Vec::with_capacity(if on { SPAN_CAP } else { 0 }),
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t` of 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs this process may run on, lowest first.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live buffer of exactly the size passed, and pid 0
    // names the calling thread; the call only writes within it.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to CPU `cpu`. Without pinning the scheduler
/// sometimes stacks both clients on one core, and runs then split into
/// two regimes (time-shared and truly concurrent) with different numbers.
fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, and pid 0 names the calling thread; the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn client(sh: &Shared, c: usize) -> ClientOut {
    let pinned = sh.pin[c].is_some_and(pin_to_cpu);
    let mut th = sh.inst.typed.handle(c);
    let session = &sh.inst.sessions[c];
    let mut gen = RequestGen::new(sh.spec, sh.seed, c, sh.zipf, sh.keys);
    // Every buffer is allocated (and its pages touched) before traffic.
    let mut hist = hists();
    let mut out = ClientOut {
        pinned,
        issued: 0,
        failed: 0,
        rounds: vec![Round::default(); sh.rounds + 1],
        traced: Traced::new(sh.trace),
    };
    let mut cur = 0;
    let mut round_start = Stats::default();
    loop {
        let r = sh.phase.load(Ordering::Relaxed);
        if r != cur {
            if sh.traced(cur) {
                out.traced
                    .stats
                    .merge(&stats_delta(&th.inner().stats(), &round_start));
            } else if cur >= 1 {
                out.rounds[cur].close(&mut hist);
            }
            cur = r;
            if r > sh.rounds {
                break;
            }
            round_start = th.inner().stats();
        }
        let ok = if sh.traced(r) {
            traced_request(sh, &mut th, session, &mut gen, &mut out.traced, c)
        } else {
            let req = gen.next_req();
            let (t0, t1, ok) = execute(sh, th.inner(), c, req);
            bump(&mut th, session);
            if r >= 1 {
                hist[req.class.index()].record(ns(t0, t1));
            }
            ok
        };
        out.rounds[r].requests += 1;
        out.failed += u64::from(!ok);
        out.issued += 1;
    }
    out
}

fn traced_request(
    sh: &Shared,
    th: &mut TypedHandle<Tl2Kind>,
    session: &TVar<u64>,
    gen: &mut RequestGen,
    t: &mut Traced,
    c: usize,
) -> bool {
    let r0 = Instant::now();
    let req = gen.next_req();
    let s0 = th.inner().stats().retries;
    let (c0, c1, ok) = execute(sh, th.inner(), c, req);
    let s1 = th.inner().stats().retries;
    let b0 = Instant::now();
    bump(th, session);
    let b1 = Instant::now();
    let class = req.class;
    t.hist[class.index()].record(ns(c0, c1));
    t.bump.record(ns(b0, b1));
    t.busy_ns += ns(r0, b1);
    t.retries[class.index()] += s1 - s0;
    let seq = t.bump.count();
    if seq.is_multiple_of(SPAN_STRIDE) && t.spans.len() + 3 <= SPAN_CAP {
        let id = ((c as u64) << 48) | seq;
        for (kind, a, b) in [
            (SpanKind::Request, r0, b1),
            (SpanKind::Call, c0, c1),
            (SpanKind::Bump, b0, b1),
        ] {
            t.spans.push(Span {
                req: id,
                kind,
                class: class.label(),
                start_ns: ns(sh.epoch, a),
                end_ns: ns(sh.epoch, b),
            });
        }
    }
    ok
}

/// The counters of `Stats` the per-layer metrics use, `end - start`.
fn stats_delta(end: &Stats, start: &Stats) -> Stats {
    Stats {
        commits: end.commits - start.commits,
        aborts_read: end.aborts_read - start.aborts_read,
        aborts_lock: end.aborts_lock - start.aborts_lock,
        aborts_validate: end.aborts_validate - start.aborts_validate,
        aborts_user: end.aborts_user - start.aborts_user,
        fences: end.fences - start.fences,
        fence_wait_ns: end.fence_wait_ns - start.fence_wait_ns,
        retries: end.retries - start.retries,
        backoff_ns: end.backoff_ns - start.backoff_ns,
        clock_bumps: end.clock_bumps - start.clock_bumps,
        validation_elisions: end.validation_elisions - start.validation_elisions,
        false_conflicts: end.false_conflicts - start.false_conflicts,
        write_commits: end.write_commits - start.write_commits,
        read_only_commits: end.read_only_commits - start.read_only_commits,
        ..Stats::default()
    }
}

/// Instance-wide counters read from outside the program: TL2's clock
/// switches and lock-table resizes, and the grace engine's fence and EBR
/// counters.
#[derive(Clone, Copy, Default)]
struct Counters {
    clock_switches: u64,
    stripe_resizes: u64,
    grace_scans: u64,
    ebr_retired: u64,
    ebr_collect_passes: u64,
}

impl Counters {
    fn read(stm: &Tl2Stm) -> Self {
        let g = stm.runtime().grace();
        Counters {
            clock_switches: stm.clock_switches(),
            stripe_resizes: stm.stripe_resizes(),
            grace_scans: g.scans(),
            ebr_retired: g.retired_boxes(),
            ebr_collect_passes: g.collect_passes(),
        }
    }

    fn add_delta(&mut self, end: &Counters, start: &Counters) {
        self.clock_switches += end.clock_switches - start.clock_switches;
        self.stripe_resizes += end.stripe_resizes - start.stripe_resizes;
        self.grace_scans += end.grace_scans - start.grace_scans;
        self.ebr_retired += end.ebr_retired - start.ebr_retired;
        self.ebr_collect_passes += end.ebr_collect_passes - start.ebr_collect_passes;
    }
}

/// Retired EBR boxes not yet collected, without taking the retire lock
/// the clients use.
fn ebr_pending(stm: &Tl2Stm) -> u64 {
    let g = stm.runtime().grace();
    g.retired_boxes().saturating_sub(g.collected_boxes())
}

/// A run's result: human-readable lines, then the metrics.
pub struct Report {
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.lines.push(
            format!("{name} {value} {unit} {note}")
                .trim_end()
                .to_string(),
        );
        self.metrics.push((name.to_string(), value, unit));
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What the main thread measured while the clients ran.
struct Timeline {
    /// Duration of each phase, in seconds (index 0 unused).
    round_s: Vec<f64>,
    /// Steal time of the clients' CPUs in each phase, in ticks (index 0
    /// unused).
    round_steal: Vec<u64>,
    /// Instance counters summed over the traced rounds.
    traced: Counters,
    /// Peak of the sampled EBR backlog during traced rounds.
    pending_peak: u64,
    clock_start: &'static str,
    stripes_start: usize,
    clock_end: &'static str,
    stripes_end: usize,
}

pub fn run(spec: &'static Spec, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report {
        lines: Vec::new(),
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    // At least one untraced and one traced round; traced runs get an even
    // number so the two kinds alternate evenly.
    let rounds = ((seconds / ROUND_S).round() as usize).max(2);
    let rounds = if trace { rounds + rounds % 2 } else { rounds };
    let cpus = allowed_cpus();
    let pin: [Option<usize>; CLIENTS] =
        std::array::from_fn(|c| (cpus.len() >= CLIENTS).then(|| cpus[c]));
    rep.lines
        .push(format!("config: {}", describe(&config(nregs(spec)))));
    rep.lines.push(format!(
        "workload: {} shards={} keys_per_shard={} prefilled={} (occupancy {}/1000) theta={} \
         mix get/put/rmw/scan/snapshot={:?}/1000 clients={} seed={} seconds={} rounds={} trace={}",
        spec.name,
        spec.shards,
        spec.keys_per_shard,
        spec.prefill_total(),
        spec.occupancy_pm,
        spec.theta.map_or("uniform".to_string(), |t| t.to_string()),
        spec.mix.0,
        CLIENTS,
        seed,
        seconds,
        rounds,
        u8::from(trace)
    ));

    // Inputs: a pure function of the workload and the seed.
    let keys = key_set(spec, seed);
    let zipf = spec.zipf();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inst = None;
    for _ in 0..SETUP_REPS {
        drop(inst.take()); // free the previous instance before timing the next
        let t0 = Instant::now();
        inst = Some(build(spec, &keys));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inst = inst.expect("at least one set-up");
    let setup_s = median(setups);

    let sh = Shared {
        spec,
        seed,
        inst: &inst,
        keys: &keys,
        zipf: zipf.as_ref(),
        trace,
        pin,
        rounds,
        phase: AtomicUsize::new(0),
        epoch: Instant::now(),
    };
    let round_len = Duration::from_secs_f64(seconds / rounds as f64);
    let (outs, tl) = std::thread::scope(|s| {
        let sh = &sh;
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(sh, c)))
            .collect();
        std::thread::sleep(WARMUP);
        let mut tl = Timeline {
            round_s: vec![0.0; rounds + 1],
            round_steal: vec![0; rounds + 1],
            traced: Counters::default(),
            pending_peak: 0,
            clock_start: inst.stm.clock_mode_label(),
            stripes_start: inst.stm.nstripes(),
            clock_end: "",
            stripes_end: 0,
        };
        for r in 1..=rounds {
            let before = Counters::read(&inst.stm);
            let steal0 = steal_ticks(&pin);
            let t0 = Instant::now();
            sh.phase.store(r, Ordering::Relaxed);
            if sh.traced(r) {
                while t0.elapsed() < round_len {
                    tl.pending_peak = tl.pending_peak.max(ebr_pending(&inst.stm));
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                std::thread::sleep(round_len);
            }
            if sh.traced(r) {
                tl.traced.add_delta(&Counters::read(&inst.stm), &before);
            }
            tl.round_s[r] = t0.elapsed().as_secs_f64();
            tl.round_steal[r] = steal_ticks(&pin).saturating_sub(steal0);
        }
        sh.phase.store(rounds + 1, Ordering::Relaxed);
        let outs: Vec<ClientOut> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        tl.clock_end = inst.stm.clock_mode_label();
        tl.stripes_end = inst.stm.nstripes();
        (outs, tl)
    });
    let pinned: Vec<bool> = outs.iter().map(|o| o.pinned).collect();
    rep.lines.push(format!(
        "host: allowed cpus={cpus:?} client cpus={pin:?} pinned={pinned:?}"
    ));
    rep.lines.push(format!(
        "timing start: clock={} stripes={}; timing end: clock={} stripes={}",
        tl.clock_start, tl.stripes_start, tl.clock_end, tl.stripes_end
    ));

    check(&mut rep, &inst, &keys, &outs);

    // Requests per second of each round, across both clients.
    let ops =
        |r: usize| outs.iter().map(|o| o.rounds[r].requests).sum::<u64>() as f64 / tl.round_s[r];
    let untraced = quiet_rounds(
        (1..=rounds).filter(|&r| !sh.traced(r)).collect(),
        &tl.round_steal,
    );
    let ops_per_s = median(untraced.iter().map(|&r| ops(r)).collect());
    if !trace {
        rep.lines.push(format!(
            "rounds: steal ticks per round {:?}; kept (steal at most the median) {untraced:?}",
            &tl.round_steal[1..]
        ));
        let per_round: Vec<String> = untraced.iter().map(|&r| format!("{:.0}", ops(r))).collect();
        let n: u64 = untraced
            .iter()
            .flat_map(|&r| outs.iter().map(move |o| o.rounds[r].requests))
            .sum();
        rep.metric(
            "ops_per_s",
            ops_per_s,
            "req/s",
            format!("(median of kept rounds [{}]; n={n})", per_round.join(", ")),
        );
        end_to_end_latencies(&mut rep, &outs, &untraced);
        rep.metric(
            "setup_s",
            setup_s,
            "s",
            format!("(median of {SETUP_REPS} builds)"),
        );
        rep.metric("peak_rss_mb", peak_rss_mb(), "MB", "(VmHWM)".to_string());
    } else {
        let traced_rounds = quiet_rounds(
            (1..=rounds).filter(|&r| sh.traced(r)).collect(),
            &tl.round_steal,
        );
        let traced_ops = median(traced_rounds.iter().map(|&r| ops(r)).collect());
        let spans: Vec<Span> = outs
            .iter()
            .flat_map(|o| o.traced.spans.iter().copied())
            .collect();
        per_layer(&mut rep, &outs, &tl, &spans);
        for (name, v) in ladder(&inst, spec, &keys, zipf.as_ref(), seed) {
            rep.metric(
                name,
                v,
                "ns",
                "(single thread, median of 5 batches)".to_string(),
            );
        }
        rep.metric(
            "trace.overhead_frac",
            1.0 - traced_ops / ops_per_s,
            "ratio",
            format!(
                "(1 - traced {traced_ops:.0} / untraced {ops_per_s:.0} req/s, medians of rounds)"
            ),
        );
        match write_spans(spec, &spans) {
            Ok(path) => rep
                .lines
                .push(format!("spans: {} written to {path}", spans.len())),
            Err(e) => rep.lines.push(format!("spans: not written ({e})")),
        }
    }
    rep
}

/// Steal time so far of the CPUs in `pin` (of every CPU when a client is
/// unpinned), in clock ticks: time the hypervisor ran something else while
/// these virtual CPUs had work. 0 when `/proc/stat` cannot be read.
fn steal_ticks(pin: &[Option<usize>]) -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0;
    };
    let wanted: Vec<String> = match pin.iter().copied().collect::<Option<Vec<usize>>>() {
        Some(cpus) => cpus.iter().map(|c| format!("cpu{c}")).collect(),
        None => vec!["cpu".to_string()],
    };
    stat.lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let name = f.next()?;
            // Fields after the name: user nice system idle iowait irq
            // softirq steal ...
            wanted
                .iter()
                .any(|w| w == name)
                .then(|| f.nth(7)?.parse::<u64>().ok())?
        })
        .sum()
}

/// The rounds of `rounds` whose steal time is at most the median round's:
/// at least half of them, all of them when steal is even. While the
/// hypervisor takes a client's virtual CPU away, the other client waits
/// for it in fences, on frozen shards and on the program's mutexes, so a
/// round with steal measures the host more than the program (on a shared
/// 2-vCPU VM steal reached 17% of a round and cut `privatize` throughput
/// by up to 30%). Steal is counted by the hypervisor, not by the program,
/// so a change to the program does not change which rounds are kept.
fn quiet_rounds(rounds: Vec<usize>, steal: &[u64]) -> Vec<usize> {
    let mut sorted: Vec<u64> = rounds.iter().map(|&r| steal[r]).collect();
    sorted.sort_unstable();
    let Some(&mid) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
        return rounds;
    };
    rounds.into_iter().filter(|&r| steal[r] <= mid).collect()
}

/// The output checks behind `failed_frac`: request-level checks already
/// counted by the clients, each session `TVar` against its client's
/// completed requests, and the final contents against the prefilled set.
fn check(rep: &mut Report, inst: &Instance, keys: &[u64], outs: &[ClientOut]) {
    let attempted: u64 = outs.iter().map(|o| o.issued).sum();
    let mut failed: u64 = outs.iter().map(|o| o.failed).sum();
    rep.lines.push(format!(
        "check requests (get finds its key; scans and snapshots anomaly-free and complete): {failed} failed"
    ));
    let mut th = inst.typed.handle(0);
    for (c, o) in outs.iter().enumerate() {
        let session = &inst.sessions[c];
        let v = th.atomically(|tx| tx.read(session));
        let ok = v == o.issued;
        failed += u64::from(!ok);
        rep.lines.push(format!(
            "check session client {c}: tvar={v} completed={} {}",
            o.issued,
            if ok { "ok" } else { "MISMATCH" }
        ));
    }
    let (dump, anomalies) = inst.kv.dump_all(th.inner());
    let diff = key_set_diff(keys, &dump);
    failed += u64::from(anomalies != 0) + diff;
    rep.lines.push(format!(
        "check final dump: anomalies={anomalies} resident={} prefilled={} missing+phantom={diff}",
        dump.len(),
        keys.len()
    ));
    rep.lines.push(format!(
        "failed_frac {} ratio (failed={failed} attempted={attempted})",
        ratio(failed, attempted)
    ));
    rep.correct = failed == 0;
    rep.attempted = attempted;
    rep.failed = failed;
}

/// p50 and p99 of each point class, p50 and p90 of scans: each
/// client's percentile in each round, then the median over all of them.
fn end_to_end_latencies(rep: &mut Report, outs: &[ClientOut], rounds: &[usize]) {
    for class in [Class::Get, Class::Put, Class::Rmw, Class::Scan] {
        let c = class.index();
        let kept: Vec<&Round> = rounds
            .iter()
            .flat_map(|&r| outs.iter().map(move |o| &o.rounds[r]))
            .filter(|rd| rd.samples[c] > 0)
            .collect();
        let samples: Vec<u64> = kept.iter().map(|rd| rd.samples[c]).collect();
        let total: u64 = samples.iter().sum();
        let fewest = samples.iter().min().copied().unwrap_or(0);
        // Scan tails are set by how long the host deschedules a core
        // mid-scan (p99 moved 0.1-9 ms between runs), so scans report p90
        // and print p99 ungated.
        let tails: &[(usize, &str, bool)] = match class {
            Class::Scan => &[(0, "p50", true), (1, "p90", true), (2, "p99", false)],
            _ => &[(0, "p50", true), (2, "p99", true)],
        };
        for &(i, tag, gated) in tails {
            let mut each: Vec<f64> = kept.iter().map(|rd| rd.pct[c][i] as f64 / 1000.0).collect();
            each.sort_by(f64::total_cmp);
            let v = median(each.clone());
            let name = format!("{}_{tag}_us", class.label());
            let note = format!(
                "(median over {} client-rounds, which range {:?}; samples {total}, fewest in a client-round {fewest})",
                kept.len(),
                (each[0], each[each.len() - 1])
            );
            if gated {
                rep.metric(&name, v, "us", note);
            } else {
                rep.lines
                    .push(format!("{name} {v} us {note} [printed only]"));
            }
        }
    }
}

/// The per-layer metrics of the traced rounds.
fn per_layer(rep: &mut Report, outs: &[ClientOut], tl: &Timeline, spans: &[Span]) {
    let mut t_hist = hists();
    let mut bump_h = NsHist::new();
    let mut st = Stats::default();
    let mut busy_ns = 0u64;
    let mut retries = [0u64; 5];
    for t in outs.iter().map(|o| &o.traced) {
        for (m, h) in t_hist.iter_mut().zip(&t.hist) {
            m.merge(h);
        }
        bump_h.merge(&t.bump);
        st.merge(&t.stats);
        busy_ns += t.busy_ns;
        for (a, b) in retries.iter_mut().zip(t.retries) {
            *a += b;
        }
    }
    let reqs = bump_h.count();
    let mut self_h = NsHist::new();
    for v in request_self_times(spans) {
        self_h.record(v);
    }
    let snaps = &t_hist[Class::Snapshot.index()];
    rep.lines.push(format!(
        "traced rounds: {reqs} requests, {} sampled for spans, {} snapshots; stats delta {st:?}",
        self_h.count(),
        snaps.count()
    ));
    let c = &tl.traced;
    let us = |h: &NsHist| h.percentile(500).unwrap_or(0) as f64 / 1000.0;
    let ns50 = |h: &NsHist| h.percentile(500).unwrap_or(0) as f64;
    let gv5 = |label: &str| f64::from(u8::from(label == "gv5"));
    let rows = [
        (
            "tl2.commit_ratio",
            ratio(st.commits, st.commits + st.aborts_total()),
            "ratio",
        ),
        (
            "tl2.aborts_read_per_req",
            ratio(st.aborts_read, reqs),
            "1/req",
        ),
        (
            "tl2.aborts_lock_per_req",
            ratio(st.aborts_lock, reqs),
            "1/req",
        ),
        (
            "tl2.aborts_validate_per_req",
            ratio(st.aborts_validate, reqs),
            "1/req",
        ),
        ("tl2.backoff_share", ratio(st.backoff_ns, busy_ns), "ratio"),
        (
            "tl2.elisions_per_commit",
            ratio(st.validation_elisions, st.commits),
            "ratio",
        ),
        (
            "clock.bumps_per_write_commit",
            ratio(st.clock_bumps, st.write_commits),
            "ratio",
        ),
        ("clock.switches", c.clock_switches as f64, "count"),
        ("clock.gv5_at_start", gv5(tl.clock_start), "bool"),
        ("clock.gv5_at_end", gv5(tl.clock_end), "bool"),
        (
            "storage.false_conflicts_per_commit",
            ratio(st.false_conflicts, st.commits),
            "ratio",
        ),
        ("storage.resizes", c.stripe_resizes as f64, "count"),
        ("storage.stripes_end", tl.stripes_end as f64, "count"),
        (
            "map.frozen_aborts_per_req",
            ratio(st.aborts_user, reqs),
            "1/req",
        ),
        ("fence.count", st.fences as f64, "count"),
        (
            "fence.wait_us_per_fence",
            ratio(st.fence_wait_ns, st.fences) / 1000.0,
            "us",
        ),
        (
            "grace.fences_per_scan",
            ratio(st.fences, c.grace_scans),
            "ratio",
        ),
        ("grace.scans", c.grace_scans as f64, "count"),
        ("ebr.retired_per_req", ratio(c.ebr_retired, reqs), "1/req"),
        ("ebr.pending_peak", tl.pending_peak as f64, "count"),
        ("ebr.collect_passes", c.ebr_collect_passes as f64, "count"),
        ("tvar.bump_p50_ns", ns50(&bump_h), "ns"),
        ("service.snapshot_p50_us", us(snaps), "us"),
        ("client.self_p50_ns", ns50(&self_h), "ns"),
    ];
    for (name, v, unit) in rows {
        rep.metric(name, v, unit, String::new());
    }
    for class in [Class::Get, Class::Put, Class::Rmw] {
        let k = t_hist[class.index()].count();
        let name = format!("tl2.retries_per_{}", class.label());
        rep.metric(
            &name,
            ratio(retries[class.index()], k),
            "1/req",
            format!("(n={k})"),
        );
    }
    let call_ns: u64 = t_hist.iter().map(NsHist::sum_ns).sum();
    for class in Class::ALL {
        let h = &t_hist[class.index()];
        let name = format!("service.busy_share.{}", class.label());
        rep.metric(
            &name,
            ratio(h.sum_ns(), call_ns),
            "ratio",
            format!("(n={})", h.count()),
        );
    }
}

/// Spans go next to the benchmark's executable, inside the build
/// directory.
fn write_spans(spec: &Spec, spans: &[Span]) -> std::io::Result<String> {
    use std::io::Write;
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name(format!("spans-{}.tsv", spec.name));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "req\tspan\tparent\tclass\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = if s.kind == SpanKind::Request {
            "-"
        } else {
            "request"
        };
        writeln!(
            w,
            "{:#x}\t{}\t{parent}\t{}\t{}\t{}",
            s.req,
            s.kind.label(),
            s.class,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()?;
    Ok(path.display().to_string())
}

/// Nanoseconds per call of `op(i)`: the median of 5 batches of about
/// 10 ms each.
fn rung(mut op: impl FnMut(usize)) -> f64 {
    let mut n = 1usize;
    let per_call = loop {
        let t = Instant::now();
        for i in 0..n {
            op(i);
        }
        let e = t.elapsed();
        if e >= Duration::from_millis(2) || n >= 1 << 24 {
            break e.as_secs_f64() / n as f64;
        }
        n *= 4;
    };
    let batch = ((0.01 / per_call) as usize).max(1);
    median(
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for i in 0..batch {
                    op(i);
                }
                t.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect(),
    )
}

/// The single-thread layer ladder on this workload's store and keys: a
/// rung minus the rung below is that layer's self time.
fn ladder(
    inst: &Instance,
    spec: &Spec,
    keys: &[u64],
    zipf: Option<&Zipf>,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let mut gen = RequestGen::new(spec, seed, 0, zipf, keys);
    let sample: Vec<u64> = (0..4096).map(|_| gen.next_req().key).collect();
    let key = |i: usize| sample[i % sample.len()];
    let kps = spec.keys_per_shard;
    let per_shard = TxMap::regs_needed(kps as usize);
    // `ShardedKv::new(0, ..)` lays shard `s` out from register
    // `s * per_shard`: these are the store's own maps.
    let map_of = |k: u64| TxMap::new(inst.kv.shard_of(k) * per_shard, kps as usize);
    // The key register of the key's home slot.
    let reg_of = |k: u64| inst.kv.shard_of(k) * per_shard + 1 + 2 * map_of(k).home_slot(k);
    let kv = &inst.kv;
    let session = &inst.sessions[0];
    let scratch = inst.scratch;
    let mut th = inst.typed.handle(0);
    let mut out = Vec::new();
    out.push((
        "ladder.direct_read_ns",
        rung(|i| {
            black_box(th.inner().read_direct(reg_of(key(i))));
        }),
    ));
    out.push((
        "ladder.tx_read_ns",
        rung(|i| {
            let r = reg_of(key(i));
            black_box(th.inner().atomic(|tx| tx.read(r)));
        }),
    ));
    out.push((
        "ladder.tx_write_ns",
        rung(|i| {
            th.inner().atomic(|tx| tx.write(scratch, i as u64));
        }),
    ));
    out.push((
        "ladder.map_get_ns",
        rung(|i| {
            let (k, m) = (key(i), map_of(key(i)));
            black_box(th.inner().atomic(|tx| m.get(tx, k)));
        }),
    ));
    out.push((
        "ladder.map_insert_ns",
        rung(|i| {
            let (k, m) = (key(i), map_of(key(i)));
            black_box(th.inner().atomic(|tx| m.insert(tx, k, i as u64)));
        }),
    ));
    out.push((
        "ladder.kv_get_ns",
        rung(|i| {
            black_box(kv.get(th.inner(), key(i)));
        }),
    ));
    out.push((
        "ladder.kv_put_ns",
        rung(|i| {
            kv.put(th.inner(), key(i), i as u64);
        }),
    ));
    out.push(("ladder.tvar_bump_ns", rung(|_| bump(&mut th, session))));
    out.push(("ladder.fence_ns", rung(|_| th.inner().fence())));
    out.push((
        "ladder.scan_ns",
        rung(|i| {
            let (frozen, entries, _) = kv.privatize_and_scan(th.inner(), kv.shard_of(key(i)));
            frozen.publish_back(th.inner());
            black_box(entries);
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn quiet_rounds_keep_at_least_half_with_least_steal() {
        // Index 0 is the warm-up and never asked for.
        let steal = [99, 3, 0, 7, 0, 2, 9];
        assert_eq!(quiet_rounds(vec![1, 2, 3, 4, 5, 6], &steal), vec![2, 4, 5]);
        assert_eq!(quiet_rounds(vec![1, 3, 5], &steal), vec![1, 5]);
        assert_eq!(quiet_rounds(vec![6], &steal), vec![6]);
        assert_eq!(quiet_rounds(vec![], &steal), Vec::<usize>::new());
        let even = [0, 4, 4, 4, 4];
        assert_eq!(quiet_rounds(vec![1, 2, 3, 4], &even), vec![1, 2, 3, 4]);
    }

    #[test]
    fn clients_scan_disjoint_shards_covering_the_store() {
        for w in &WORKLOADS {
            assert_eq!(w.shards % CLIENTS, 0, "{}", w.name);
            for c in 0..CLIENTS {
                let mut owned: Vec<usize> = (0..w.shards).map(|s| scan_shard(s, c)).collect();
                assert!(owned.iter().all(|&s| s < w.shards && s % CLIENTS == c));
                owned.dedup();
                assert_eq!(owned.len(), w.shards / CLIENTS, "{}", w.name);
            }
        }
    }
}

//! The traced run (`--trace 1`): replays one workload's operations a
//! layer at a time through the layers' public functions, with a span
//! around every call, and derives the per-layer metrics.
//!
//! Every workload's replay walks the same layers in the same order, on
//! that workload's own inputs — its 15 built workloads, its cells, its
//! frames:
//!
//! 1. `kernels.build` / `emu.verify`: `Workload::build` and
//!    `verify_digested` of each of the 15 workloads;
//! 2. `cache.store` / `cache.load`: each image through a fresh
//!    `WorkloadCache`;
//! 3. `cpu.prep` / `cpu.run` / `mem.access`, per cell:
//!    `DepGraph::build(..).invert()`, `Processor::run`, and the trace's
//!    memory operations through a fresh `MemorySystem`;
//! 4. `sweep.run`: the cells through `sweep::run` on 2 workers;
//! 5. `tune.search` / `tune.exec`: design-tune runs the real search
//!    with a span around every executor batch; paper-sweep executes its
//!    cells as one executor batch and scores them with the tuner's cost
//!    model and frontier;
//! 6. `protocol.encode` / `protocol.decode`: the requests a served run
//!    of the workload sends, against a live in-process server, one at a
//!    time — paper-sweep's grid as one `SWEEP`, design-tune's search
//!    batches as `SWEEP`s.
//!
//! `sweep.run` and `tune.exec` spans wrap `sweep::run`, whose worker
//! threads re-simulate every cell. That simulation share — the summed
//! per-cell simulation wall time over the worker count — is moved out
//! of their self time into `sweep.sim` and `tune.sim`, so `sweep.run`
//! and `tune.exec` keep only the engine's and executor's own time
//! (scheduling, thread start-up, idle workers).
//!
//! The replay runs three times: untraced to warm up, traced, and
//! untraced again; the difference of the last two wall times is the
//! tracing overhead.

use crate::golden;
use crate::trace::Tracer;
use crate::workloads::{all_pairs, prebuilt, seeded_runner, tune_config};
use crate::{Args, Report, Workload as Bench, THREADS};
use mom3d_bench::protocol::{
    read_frame, write_frame, Client, Endpoint, Request, Response, ServeCounters, Stream, OP_RESULT,
    OP_SWEEP,
};
use mom3d_bench::serve::{serve, ServeConfig};
use mom3d_bench::tune::{pareto_frontier, tune, CostModel, Eval, Executor, LocalExec};
use mom3d_bench::{sweep, SimKey, WorkloadCache};
use mom3d_cpu::{DepGraph, MemorySystem, Metrics, Processor, ProcessorConfig};
use mom3d_emu::checksum64;
use mom3d_isa::{ExecClass, Opcode, Trace};
use mom3d_kernels::{ImageKey, IsaVariant, Workload, WorkloadKind};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names that are layers; every other span's self time is the
/// unattributed remainder.
const LAYERS: [&str; 14] = [
    "kernels.build",
    "emu.verify",
    "cache.store",
    "cache.load",
    "cpu.prep",
    "cpu.run",
    "mem.access",
    "sweep.run",
    "sweep.sim",
    "tune.exec",
    "tune.sim",
    "tune.search",
    "protocol.encode",
    "protocol.decode",
];

/// What one workload's replay operates on, prepared untimed.
struct Plan {
    workload: Bench,
    seed: u64,
    /// The cells, in replay order.
    cells: Vec<SimKey>,
    /// Their metrics from an untraced run of the workload's own path.
    expected: HashMap<SimKey, Metrics>,
    /// The requests a served run of the workload sends: paper-sweep's
    /// grid as one `SWEEP`, design-tune's search batches as `SWEEP`s.
    requests: Vec<Request>,
    /// Checks of `expected` against the recorded digests (`golden/`),
    /// and the ones that failed.
    golden_checked: u64,
    golden_mismatches: Vec<String>,
}

/// Records the batches a search hands its executor.
struct BatchLog<'a> {
    inner: LocalExec<'a>,
    batches: Vec<Vec<SimKey>>,
}

impl Executor for BatchLog<'_> {
    fn run(&mut self, cells: &[SimKey]) -> Result<Vec<(SimKey, Metrics, bool)>, String> {
        self.batches.push(cells.to_vec());
        self.inner.run(cells)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

impl Plan {
    fn new(args: &Args) -> Result<Plan, String> {
        let built = prebuilt(args.seed);
        let mut runner = seeded_runner(args.seed, &built);
        let mut golden_checked = 0;
        let mut golden_mismatches = Vec::new();
        let (cells, requests) = match args.workload {
            Bench::PaperSweep => {
                let cells = sweep::full_grid();
                (cells.clone(), vec![Request::Sweep(cells)])
            }
            Bench::DesignTune => {
                let mut log = BatchLog {
                    inner: LocalExec {
                        runner: &mut runner,
                        threads: THREADS,
                    },
                    batches: Vec::new(),
                };
                let tuned = tune(&tune_config(args.seed), &mut log)?;
                if let Some(want) = golden::design_tune(args.seed) {
                    golden_checked += 1;
                    let got = checksum64(tuned.to_json().as_bytes());
                    if got != want {
                        golden_mismatches.push(format!(
                            "tune report digest {got:016x} != recorded {want:016x}"
                        ));
                    }
                }
                let cells = tuned
                    .workloads
                    .iter()
                    .flat_map(|w| w.visited.iter().map(|e| e.key))
                    .collect();
                (cells, log.batches.into_iter().map(Request::Sweep).collect())
            }
        };
        let expected: HashMap<SimKey, Metrics> = sweep::run(&mut runner, &cells, THREADS)
            .cells
            .into_iter()
            .map(|c| (c.key, c.metrics))
            .collect();
        let recorded =
            golden::paper_sweep(args.seed).filter(|_| args.workload == Bench::PaperSweep);
        if let Some(lines) = recorded {
            golden_checked += 1;
            let got: Vec<String> = cells
                .iter()
                .map(|key| golden::cell_line(key, &expected[key]))
                .collect();
            if got != lines {
                golden_mismatches.push(format!(
                    "reference grid differs from the recorded digests ({} of {} lines equal)",
                    got.iter().zip(&lines).filter(|(g, w)| g == w).count(),
                    lines.len()
                ));
            }
        }
        Ok(Plan {
            workload: args.workload,
            seed: args.seed,
            cells,
            expected,
            requests,
            golden_checked,
            golden_mismatches,
        })
    }
}

/// Counts gathered by one replay.
#[derive(Debug, Default)]
struct Counts {
    ops: u64,
    mismatches: Vec<String>,
    verified_instrs: u64,
    jit_runs: u64,
    image_bytes: u64,
    cache: mom3d_bench::CacheStats,
    prep_calls: u64,
    vector_accesses: u64,
    scalar_accesses: u64,
    port_accesses: u64,
    row_hits: u64,
    row_misses: u64,
    model: Metrics,
    busy_ns: u128,
    capacity_ns: u128,
    /// Simulation share of the `sweep.run` and `tune.exec` spans, ns.
    sweep_sim_ns: u64,
    tune_sim_ns: u64,
    batches: u64,
    evals: u64,
    dedup_hits: u64,
    /// Per opcode: (frames, bytes).
    frames: BTreeMap<u8, (u64, u64)>,
    serve: ServeCounters,
}

impl Counts {
    fn check(&mut self, what: &str, key: &SimKey, got: &Metrics, plan: &Plan) {
        self.ops += 1;
        if plan.expected.get(key) != Some(got) {
            self.mismatches
                .push(format!("{what}: {}", golden::cell_name(key)));
        }
    }

    fn frame(&mut self, opcode: u8, bytes: usize) {
        let e = self.frames.entry(opcode).or_default();
        e.0 += 1;
        e.1 += bytes as u64;
    }

    /// Adds a `sweep::run` to the busy ratio; returns its simulation
    /// share: summed per-cell simulation wall time over the workers.
    fn sweep_busy(&mut self, report: &sweep::SweepReport) -> u64 {
        let busy = report.cells.iter().map(|c| c.wall.as_nanos()).sum::<u128>();
        self.busy_ns += busy;
        self.capacity_ns += report.threads as u128 * report.wall.as_nanos();
        (busy / report.threads.max(1) as u128) as u64
    }
}

/// The trace's memory operations through a fresh memory system, as the
/// pipeline issues them.
fn mem_replay(cfg: &ProcessorConfig, trace: &Trace, c: &mut Counts) {
    let mut ms = MemorySystem::new(cfg);
    if cfg.warm_caches {
        ms.warm_from_trace(trace);
    }
    for instr in trace.iter() {
        let Some(mem) = &instr.mem else { continue };
        match instr.opcode.class() {
            ExecClass::Mem => {
                black_box(ms.scalar_access(mem, instr.opcode.is_store()));
                c.scalar_accesses += 1;
            }
            ExecClass::VecMem => {
                let is_3d = instr.opcode == Opcode::DvLoad;
                black_box(ms.vector_access(mem, instr.opcode.is_store(), is_3d));
                c.vector_accesses += 1;
            }
            _ => {}
        }
    }
    c.port_accesses += ms.port_accesses;
    let b = ms.backend_stats();
    c.row_hits += b.row_hits;
    c.row_misses += b.row_misses;
}

/// The design-tune executor: a span around every batch.
struct TracedExec<'a, 'b> {
    runner: &'a mut mom3d_bench::Runner,
    tracer: &'b mut Tracer,
    counts: &'b mut Counts,
}

impl Executor for TracedExec<'_, '_> {
    fn run(&mut self, cells: &[SimKey]) -> Result<Vec<(SimKey, Metrics, bool)>, String> {
        let runner = &mut *self.runner;
        let report = self
            .tracer
            .span("tune.exec", |_| sweep::run(runner, cells, THREADS));
        self.counts.batches += 1;
        self.counts.evals += cells.len() as u64;
        self.counts.tune_sim_ns += self.counts.sweep_busy(&report);
        Ok(report
            .cells
            .into_iter()
            .map(|c| (c.key, c.metrics, c.reused))
            .collect())
    }

    fn describe(&self) -> String {
        format!("traced local sweep engine, {THREADS} threads")
    }
}

fn replay(plan: &Plan, args: &Args, t: &mut Tracer) -> Result<Counts, String> {
    let mut c = Counts::default();

    // 1. Build and verify.
    let jit0 = mom3d_emu::jit_runs();
    let mut built: HashMap<(WorkloadKind, IsaVariant), (Arc<Workload>, u64)> = HashMap::new();
    for (kind, variant) in all_pairs() {
        let wl = t.span("kernels.build", |_| {
            Workload::build(kind, variant, plan.seed)
        });
        let wl = wl.map_err(|e| format!("building {kind} {variant}: {e}"))?;
        let digest = t.span("emu.verify", |_| wl.verify_digested());
        let digest = digest.map_err(|e| format!("verifying {kind} {variant}: {e}"))?;
        c.ops += 1;
        c.verified_instrs += wl.trace().len() as u64;
        built.insert((kind, variant), (Arc::new(wl), digest));
    }
    c.jit_runs = mom3d_emu::jit_runs() - jit0;

    // 2. Image store and load.
    let dir = args.work.join("replay-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = WorkloadCache::open(&dir).ok_or("cannot open the replay image cache")?;
    for (kind, variant) in all_pairs() {
        let (wl, digest) = &built[&(kind, variant)];
        let key = ImageKey {
            kind,
            variant,
            seed: plan.seed,
            small: false,
        };
        t.span("cache.store", |_| cache.store(wl, &key, *digest));
        c.image_bytes += std::fs::metadata(cache.image_path(&key)).map_or(0, |m| m.len());
        let loaded = t.span("cache.load", |_| cache.load(&key));
        c.ops += 1;
        if loaded.as_ref() != Some(&**wl) {
            c.mismatches.push(format!(
                "image of {kind} {variant} did not load back identical"
            ));
        }
    }
    c.cache = cache.stats();

    // 3. Per cell: prep, pipeline, memory system.
    for key in &plan.cells {
        let wl = &built[&(key.kind, key.variant)].0;
        let cfg = key.config();
        t.span("cpu.prep", |_| {
            black_box(DepGraph::build(wl.trace()).invert())
        });
        c.prep_calls += 1;
        let m = t.span("cpu.run", |_| Processor::new(cfg).run(wl.trace()));
        let m = m.map_err(|e| format!("simulating {}: {e}", golden::cell_name(key)))?;
        c.check("cpu.run", key, &m, plan);
        t.span("mem.access", |_| mem_replay(&cfg, wl.trace(), &mut c));
        c.model.merge(&m);
    }

    // 4. The sweep engine.
    let arcs: Vec<Arc<Workload>> = built.values().map(|(wl, _)| Arc::clone(wl)).collect();
    let mut runner = seeded_runner(plan.seed, &arcs);
    let swept = t.span("sweep.run", |_| {
        sweep::run(&mut runner, &plan.cells, THREADS)
    });
    c.sweep_sim_ns = c.sweep_busy(&swept);
    for cell in &swept.cells {
        c.check("sweep.run", &cell.key, &cell.metrics, plan);
    }

    // 5. The tuner.
    let mut runner = seeded_runner(plan.seed, &arcs);
    t.span("tune.search", |t| -> Result<(), String> {
        if plan.workload == Bench::DesignTune {
            let mut exec = TracedExec {
                runner: &mut runner,
                tracer: t,
                counts: &mut c,
            };
            let tuned = tune(&tune_config(plan.seed), &mut exec)?;
            for w in &tuned.workloads {
                c.dedup_hits += w.families.iter().map(|f| f.dedup_hits as u64).sum::<u64>();
                for e in &w.visited {
                    c.check("tune", &e.key, &e.metrics, plan);
                }
            }
        } else {
            let mut exec = TracedExec {
                runner: &mut runner,
                tracer: t,
                counts: &mut c,
            };
            let results = exec.run(&plan.cells)?;
            let cost = CostModel::default();
            let evals: Vec<Eval> = results
                .iter()
                .map(|&(k, m, hit)| cost.eval(k, m, hit))
                .collect();
            let objs: Vec<_> = evals.iter().map(Eval::objectives).collect();
            black_box(pareto_frontier(&objs));
            for (k, m, _) in &results {
                c.check("tune", k, m, plan);
            }
        }
        Ok(())
    })?;

    // 6. The frame protocol, against a live server.
    served_round(plan, args, t, &mut c)?;
    Ok(c)
}

fn encode((opcode, payload): &(u8, Vec<u8>)) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 17);
    write_frame(&mut bytes, *opcode, payload).expect("writing to a Vec cannot fail");
    bytes
}

/// A raw client stream: the replay drives framing itself so encode,
/// socket wait and decode get spans of their own.
fn open_stream(endpoint: &Endpoint) -> Result<Stream, String> {
    let s = endpoint.connect().map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(120)));
    s.set_write_timeout(Some(Duration::from_secs(120)));
    Ok(s)
}

/// A connected client with generous deadlines (a cold full-geometry
/// simulation takes up to a few hundred milliseconds).
fn connect(endpoint: &Endpoint) -> Result<Client, String> {
    let client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    client.set_io_timeout(Some(Duration::from_secs(120)));
    Ok(client)
}

/// The workload's requests against a freshly booted server, one at a
/// time, each request's spans tagged with its id.
fn served_round(plan: &Plan, args: &Args, t: &mut Tracer, c: &mut Counts) -> Result<(), String> {
    let endpoint = Endpoint::Unix(args.work.join("replay.sock"));
    let config = ServeConfig {
        seed: plan.seed,
        threads: THREADS,
        prebuild: true,
        ..Default::default()
    };
    let handle = t
        .span("serve.boot", |_| serve(endpoint.clone(), config))
        .map_err(|e| format!("serve: {e}"))?;
    let mut conn = open_stream(&endpoint)?;
    for (id, req) in plan.requests.iter().enumerate() {
        let want = match req {
            Request::Sweep(cells) => cells.len(),
            _ => 1,
        };
        let replies = t.span_req("serve.request", Some(id as u64), |t| {
            let bytes = t.span_req("protocol.encode", Some(id as u64), |_| {
                encode(&req.encode())
            });
            c.frame(bytes[4], bytes.len());
            t.span_req("serve.send", Some(id as u64), |_| {
                std::io::Write::write_all(&mut conn, &bytes).map_err(|e| format!("send: {e}"))
            })?;
            let mut replies = Vec::new();
            loop {
                let frame = t.span_req("serve.wait", Some(id as u64), |_| {
                    read_frame(&mut conn).map_err(|e| format!("recv: {e}"))
                })?;
                c.frame(frame.opcode, frame.payload.len() + 17);
                let resp = t.span_req("protocol.decode", Some(id as u64), |_| {
                    Response::decode(&frame).map_err(|e| format!("decode: {e}"))
                })?;
                match resp {
                    Response::Result(r) => {
                        replies.push(r);
                        if matches!(req, Request::Sim(_)) {
                            break;
                        }
                    }
                    Response::Done { .. } => break,
                    other => return Err(format!("request {id}: unexpected reply {other:?}")),
                }
            }
            Ok::<_, String>(replies)
        })?;
        c.ops += 1;
        if replies.len() != want {
            c.mismatches
                .push(format!("request {id}: {} of {want} results", replies.len()));
        }
        for r in &replies {
            if plan.expected.get(&r.key) != Some(&r.metrics) {
                c.mismatches
                    .push(format!("request {id}: {}", golden::cell_name(&r.key)));
            }
        }
    }
    drop(conn);
    let mut stats = connect(&endpoint)?;
    match stats.round_trip(&Request::Stats) {
        Ok(Response::Stats(s)) => c.serve = s,
        other => return Err(format!("STATS answered {other:?}")),
    }
    drop(stats);
    handle.shutdown();
    Ok(())
}

/// Moves `ns` of `from`'s self time to `to` (at most all of it), so
/// the self times still sum to the traced wall time.
fn carve(selfs: &mut BTreeMap<&'static str, u64>, from: &str, to: &'static str, ns: u64) {
    let Some(have) = selfs.get_mut(from) else {
        return;
    };
    let moved = ns.min(*have);
    *have -= moved;
    *selfs.entry(to).or_insert(0) += moved;
}

/// The traced run: untraced replay, traced replay, per-layer metrics.
pub fn run(args: &Args) -> Result<Report, String> {
    let plan = Plan::new(args)?;
    // A first replay pays one-off costs (heap growth, page faults), so
    // it warms up; the traced and untraced replays that follow compare.
    replay(&plan, args, &mut Tracer::off())?;
    let mut t = Tracer::recording();
    let c = t.span("replay", |t| replay(&plan, args, t))?;
    let wall = t.total("replay") as f64;
    let t0 = Instant::now();
    replay(&plan, args, &mut Tracer::off())?;
    let untraced = t0.elapsed().as_nanos() as f64;
    let spans = args
        .work
        .with_file_name(format!("spans-{}.json", args.workload.name()));
    t.write_json(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;

    let mut selfs = t.self_times();
    carve(&mut selfs, "sweep.run", "sweep.sim", c.sweep_sim_ns);
    carve(&mut selfs, "tune.exec", "tune.sim", c.tune_sim_ns);
    let ns = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
    let unattributed: f64 = selfs
        .iter()
        .filter(|(k, _)| !LAYERS.contains(k))
        .map(|(_, &v)| v as f64)
        .sum();
    let attributed: f64 = LAYERS.iter().map(|l| ns(l)).sum();
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let mut r = Report {
        attempted: c.ops + plan.golden_checked,
        ..Report::default()
    };
    for m in plan.golden_mismatches.iter().chain(&c.mismatches) {
        r.mismatch(1, m.clone());
    }
    let run_ns = ns("cpu.run");
    let mut v = |name: &str, unit: &'static str, value: f64| r.value(name, unit, value);
    v("kernels.build.ns", "ns", ns("kernels.build"));
    v("emu.verify.ns", "ns", ns("emu.verify"));
    v(
        "emu.verify.ns_per_instr",
        "ns",
        ratio(ns("emu.verify"), c.verified_instrs as f64),
    );
    v("emu.jit_runs", "count", c.jit_runs as f64);
    v("cache.store.ns", "ns", ns("cache.store"));
    v("cache.load.ns", "ns", ns("cache.load"));
    v("cache.image_bytes", "bytes", c.image_bytes as f64);
    v("cache.hits", "count", c.cache.hits as f64);
    v("cache.misses", "count", c.cache.misses as f64);
    v("cache.rejected", "count", c.cache.rejected as f64);
    v("cpu.prep.ns", "ns", ns("cpu.prep"));
    v("cpu.prep.calls", "count", c.prep_calls as f64);
    v("cpu.run.ns", "ns", run_ns);
    v(
        "cpu.run.ns_per_instr",
        "ns",
        ratio(run_ns, c.model.instructions as f64),
    );
    v(
        "cpu.run.ns_per_cycle",
        "ns",
        ratio(run_ns, c.model.cycles as f64),
    );
    v(
        "cpu.run.minstr_per_s",
        "Minstr/s",
        ratio(c.model.instructions as f64 * 1e3, run_ns),
    );
    v(
        "cpu.core_est.ns",
        "ns",
        run_ns - ns("cpu.prep") - ns("mem.access"),
    );
    v("mem.access.ns", "ns", ns("mem.access"));
    v("mem.vector_accesses", "count", c.vector_accesses as f64);
    v("mem.scalar_accesses", "count", c.scalar_accesses as f64);
    v("mem.port_accesses", "count", c.port_accesses as f64);
    v(
        "mem.dram_row_hit_ratio",
        "ratio",
        ratio(c.row_hits as f64, (c.row_hits + c.row_misses) as f64),
    );
    v("sweep.run.ns", "ns", ns("sweep.run"));
    v("sweep.sim.ns", "ns", ns("sweep.sim"));
    v(
        "sweep.busy_ratio",
        "ratio",
        ratio(c.busy_ns as f64, c.capacity_ns as f64),
    );
    v("tune.exec.ns", "ns", ns("tune.exec"));
    v("tune.sim.ns", "ns", ns("tune.sim"));
    v("tune.search.ns", "ns", ns("tune.search"));
    v("tune.batches", "count", c.batches as f64);
    v("tune.evals", "count", c.evals as f64);
    v("tune.dedup_hits", "count", c.dedup_hits as f64);
    v("protocol.encode.ns", "ns", ns("protocol.encode"));
    v("protocol.decode.ns", "ns", ns("protocol.decode"));
    for (op, name) in [(OP_SWEEP, "sweep"), (OP_RESULT, "result")] {
        let (frames, bytes) = c.frames.get(&op).copied().unwrap_or_default();
        v(
            &format!("protocol.frame_bytes.{name}"),
            "bytes",
            ratio(bytes as f64, frames as f64),
        );
    }
    let s = c.serve;
    v("serve.sims_executed", "count", s.sims_executed as f64);
    v("serve.shed", "count", s.shed as f64);
    v("serve.protocol_errors", "count", s.protocol_errors as f64);
    v("model.cycles", "count", c.model.cycles as f64);
    v("model.instructions", "count", c.model.instructions as f64);
    v("model.ipc", "ratio", c.model.ipc());
    v("model.port_accesses", "count", c.model.port_accesses as f64);
    v("model.l2_activity", "count", c.model.l2_activity as f64);
    v("trace.wall.ns", "ns", wall);
    v("trace.untraced_wall.ns", "ns", untraced);
    v("trace.overhead.ns", "ns", wall - untraced);
    v("trace.unattributed.ns", "ns", unattributed);
    v("trace.spans", "count", t.spans().len() as f64);

    for (name, ns) in &selfs {
        let layer = if LAYERS.contains(name) {
            "layer"
        } else {
            "unattributed"
        };
        println!("self time {name:<18} {ns:>14} ns  {layer}");
    }
    println!(
        "layers {attributed} + unattributed {unattributed} = traced wall {wall}; spans in {}",
        spans.display()
    );
    Ok(r)
}

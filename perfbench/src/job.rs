//! One job: a closed-loop pass of a workload through the public `tilecc`
//! API, run in a fresh process.
//!
//! A pass compiles the generated `.tk` source, builds the plan, simulates,
//! runs in Full mode and verifies; the job's first pass also tunes. A job
//! repeats the pass while the passes are cheap (so that millisecond-scale
//! calls are measured more than once). It times every public call from the
//! benchmark's side, checks every output, and prints every pass's samples as
//! `kind name value` lines for the parent process to pool. A traced job also
//! hands a [`MetricsRegistry`] to the plan compiler and the engine and reads
//! the layer times from the spans they already record.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use tilecc::cluster::obs::{Counter, Phase, Span};
use tilecc::cluster::{EngineOptions, MachineModel, MetricsRegistry};
use tilecc::loopnest::Algorithm;
use tilecc::parcode::{execute_backend, Backend, ExecMode, ExecStrategy};
use tilecc::tiling::TilingTransform;
use tilecc::tune::fmt_h;
use tilecc::{enumerate_candidates, tune, Pipeline, TuneOptions, TunedCandidate};

use crate::report::median;
use crate::workload::{Workload, TUNE_VOLUME};

/// Share of the traced setup time the setup-layer spans must cover (on a
/// traced job's median pass).
pub const MIN_SETUP_COVERAGE: f64 = 0.9;
/// A job repeats its pass until the passes have taken this long…
const PASS_BUDGET_S: f64 = 0.25;
/// …or it has made this many.
const MAX_PASSES: usize = 32;

/// One span recorded on the job's own clock. `parent` indexes the job's
/// span list.
#[derive(Clone, Debug)]
pub struct JobSpan {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl JobSpan {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Named samples of one pass or one job (a job repeats a name per pass).
type Samples = Vec<(&'static str, f64)>;

/// Everything a job reports.
#[derive(Default)]
pub struct JobOutput {
    /// End-to-end samples (untraced jobs report them too).
    pub metrics: Samples,
    /// Per-layer samples (traced jobs only).
    pub layers: Samples,
    /// `(name, passed, detail)`: each distinct failure, and each passed
    /// check once.
    pub checks: Vec<(&'static str, bool, String)>,
    /// Values that must be identical across the jobs of a run.
    pub idents: Vec<(&'static str, String)>,
    pub spans: Vec<JobSpan>,
}

impl JobOutput {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        let seen = self
            .checks
            .iter()
            .any(|c| c.0 == name && c.1 == ok && (ok || c.2 == detail));
        if !seen {
            self.checks.push((name, ok, detail));
        }
    }

    fn ident(&mut self, name: &'static str, value: String) {
        if !self.idents.iter().any(|i| i.0 == name && i.1 == value) {
            self.idents.push((name, value));
        }
    }

    /// The line protocol the parent reads back.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.metrics {
            let _ = writeln!(s, "metric {k} {v}");
        }
        for (k, v) in &self.layers {
            let _ = writeln!(s, "layer {k} {v}");
        }
        for (k, ok, d) in &self.checks {
            let _ = writeln!(s, "check {k} {} {}", *ok as u8, d.replace('\n', " "));
        }
        for (k, v) in &self.idents {
            let _ = writeln!(s, "ident {k} {v}");
        }
        for sp in &self.spans {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(s, "span {} {parent} {} {}", sp.name, sp.start_ns, sp.end_ns);
        }
        s
    }
}

/// An optional registry plus its epoch's offset on the job clock.
type Registry = Option<(Arc<MetricsRegistry>, u64)>;

/// The tuner's result, kept across passes.
struct Tuned {
    winner: TunedCandidate,
    tune_s: f64,
    layers: Samples,
}

struct Job {
    w: Workload,
    traced: bool,
    model: MachineModel,
    epoch: Instant,
    out: JobOutput,
}

/// Run one job of `workload` with the inputs of `seed`.
pub fn run(w: Workload, seed: u64, traced: bool) -> JobOutput {
    let mut job = Job {
        w,
        traced,
        model: MachineModel::fast_ethernet_p3(),
        epoch: Instant::now(),
        out: JobOutput::default(),
    };
    if w.one_cpu() {
        if let Err(e) = pin_to_one_cpu() {
            job.out.check("pin_to_one_cpu", false, e.to_string());
            return job.out;
        }
    }
    let src = w.source(seed);
    let mut tuned = None;
    let mut passes: Vec<(Samples, Samples)> = vec![];
    let mut spent = 0.0;
    while passes.len() < MAX_PASSES && (passes.is_empty() || spent < PASS_BUDGET_S) {
        let Some((metrics, layers)) = job.pass(&src, &mut tuned) else {
            break;
        };
        spent += lookup(&metrics, "total_s");
        passes.push((metrics, layers));
    }
    let Some(tuned) = tuned.filter(|_| !passes.is_empty()) else {
        return job.out;
    };
    // Every pass's samples go to the parent, which pools them over the run;
    // `total_s`, the job's median pass plus its tune, is one per job.
    let per_pass = |i: usize, name: &str| -> Vec<f64> {
        passes
            .iter()
            .map(|p| lookup(if i == 0 { &p.0 } else { &p.1 }, name))
            .collect()
    };
    let total_s = median(&per_pass(0, "total_s")) + tuned.tune_s;
    let mut metrics: Samples = passes
        .iter()
        .flat_map(|p| &p.0)
        .filter(|m| m.0 != "total_s")
        .copied()
        .collect();
    metrics.extend([
        ("total_s", total_s),
        ("tune_s", tuned.tune_s),
        ("peak_rss_mb", proc_status_mib("VmHWM:")),
        ("passes", passes.len() as f64),
    ]);
    job.out.metrics = metrics;
    if traced {
        // Checked on the job's median pass: a single millisecond-scale
        // `sor-tune` setup can lose its 10% to one preemption.
        let coverage = median(&per_pass(1, "trace.setup_coverage"));
        job.out.check(
            "setup_coverage",
            coverage >= MIN_SETUP_COVERAGE,
            format!("setup-layer spans cover {coverage:.4} of setup_s"),
        );
        job.out.layers = passes.iter().flat_map(|p| &p.1).copied().collect();
        job.out.layers.extend(tuned.layers);
    }
    job.out
}

fn lookup(samples: &Samples, name: &str) -> f64 {
    samples.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1)
}

/// The layer a program-recorded driver span belongs to.
fn driver_layer(sp: &Span) -> &'static str {
    match (sp.phase, sp.name) {
        (Phase::Plan, "validate-tiling") => "tiling.validate",
        (Phase::Plan, "tiled-space") => "tiling.tiled_space",
        (Phase::Plan, "distribution") => "tiling.distribution",
        (Phase::Plan, "comm-plan") => "tiling.comm_plan",
        (Phase::Plan, "lds-geometry") => "tiling.lds_geometry",
        (Phase::CompileChain, _) => "parcode.compile_chain",
        (Phase::Gather, _) => "parcode.gather",
        _ => "other",
    }
}

/// A `/proc/self/status` size field (`VmHWM:`, `VmRSS:`) in MiB.
pub fn proc_status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pin the calling thread, and so every thread it starts later, to the
/// first CPU it may run on.
fn pin_to_one_cpu() -> std::io::Result<()> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A glibc `cpu_set_t`: 1024 CPUs.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let word = mask
        .iter()
        .position(|&m| m != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

fn engine(reg: &Registry) -> EngineOptions {
    EngineOptions {
        obs: reg.as_ref().map(|(r, _)| r.clone()),
        ..EngineOptions::default()
    }
}

impl Job {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; returns its result and the span's index.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.out.spans.push(JobSpan {
            name,
            parent: None,
            start_ns,
            end_ns,
        });
        (r, self.out.spans.len() - 1)
    }

    fn secs(&self, span: usize) -> f64 {
        self.out.spans[span].secs()
    }

    /// A registry for one traced call (`None` when untraced).
    fn registry(&self) -> Registry {
        self.traced.then(|| (MetricsRegistry::new(), self.now()))
    }

    /// Adopt a registry's driver-side spans as children of `parent`.
    fn adopt(&mut self, reg: &Registry, parent: usize) {
        let Some((reg, offset)) = reg else { return };
        for sp in reg.spans().iter().filter(|s| s.pid == 0) {
            self.out.spans.push(JobSpan {
                name: driver_layer(sp),
                parent: Some(parent),
                start_ns: sp.wall_start_ns + offset,
                end_ns: sp.wall_end_ns + offset,
            });
        }
    }

    /// Seconds of `parent`'s children named `name`.
    fn child_secs(&self, parent: usize, name: &str) -> f64 {
        self.out
            .spans
            .iter()
            .filter(|sp| sp.parent == Some(parent) && sp.name == name)
            .map(JobSpan::secs)
            .sum()
    }

    /// Unwrap a step's result, recording a failed check on error.
    fn ok<T, E: std::fmt::Display>(&mut self, step: &'static str, r: Result<T, E>) -> Option<T> {
        r.map_err(|e| self.out.check(step, false, e.to_string()))
            .ok()
    }

    /// One `tilecc::tune` call seeded with the workload's H. A traced job
    /// also times the tuner's layers: one enumeration, the legality filter
    /// over every enumerated candidate, and every evaluated candidate
    /// replayed through compile + simulate.
    fn tune(&mut self, alg: &Algorithm) -> Option<Tuned> {
        let opts = TuneOptions {
            volume: TUNE_VOLUME,
            m: self.w.m(),
            max_candidates: self.w.tune_cap(),
            include: vec![self.w.h()],
        };
        let model = self.model;
        let (outcome, span) = self.time("core.tune", || tune(alg, &opts, model));
        let (Some(best), Some(seeded)) = (outcome.best(), outcome.best_included()) else {
            self.out.check("tune", false, "no candidate evaluated");
            return None;
        };
        self.out.check(
            "tune.winner_le_seed",
            best.summary.makespan <= seeded.summary.makespan,
            format!("{} vs {}", best.summary.makespan, seeded.summary.makespan),
        );
        self.out.ident("winner_h", fmt_h(&best.h).replace(' ', ","));
        let mut tuned = Tuned {
            winner: best.clone(),
            tune_s: self.secs(span),
            layers: vec![],
        };
        if !self.traced {
            return Some(tuned);
        }
        let deps = alg.nest.deps();
        let (cands, span) = self.time("core.tune.enumerate_candidates", || {
            enumerate_candidates(deps, TUNE_VOLUME)
        });
        let enumerate_s = self.secs(span);
        let t0 = Instant::now();
        for c in cands {
            if let Ok(t) = TilingTransform::new(c.h) {
                let _ = t.validate_for(deps);
            }
        }
        let filter_s = t0.elapsed().as_secs_f64();
        let (mut compile_s, mut simulate_s, mut ranks) = (0.0, 0.0, 0);
        for c in &outcome.ranking {
            let t0 = Instant::now();
            let pipe = TilingTransform::new(c.h.clone())
                .and_then(|t| Pipeline::compile_transform(alg.clone(), t, Some(self.w.m())));
            compile_s += t0.elapsed().as_secs_f64();
            if let Ok(pipe) = pipe {
                let t0 = Instant::now();
                ranks += pipe.simulate(model).procs;
                simulate_s += t0.elapsed().as_secs_f64();
            }
        }
        let evaluated = outcome.ranking.len();
        tuned.layers = vec![
            ("core.tune.enumerate_s", enumerate_s),
            ("core.tune.filter_s", filter_s),
            ("core.tune.generated", outcome.generated as f64),
            ("core.tune.deduped", outcome.deduped as f64),
            ("core.tune.evaluated", evaluated as f64),
            ("core.tune.compile_s", compile_s),
            ("core.tune.simulate_s", simulate_s),
            (
                "core.tune.mean_ranks",
                ranks as f64 / evaluated.max(1) as f64,
            ),
            ("core.tune.rank_threads", ranks as f64),
        ];
        Some(tuned)
    }

    /// One pass: setup → (tune, first pass only) → simulate → Full run →
    /// verify, with every check. Returns the pass's end-to-end and
    /// per-layer samples.
    fn pass(&mut self, src: &str, tuned: &mut Option<Tuned>) -> Option<(Samples, Samples)> {
        let (w, model, backend, m) = (self.w, self.model, self.w.backend(), self.w.m());
        let (alg, s_front) = self.time("frontend.compile_kernel", || {
            tilecc_frontend::compile_kernel(src)
        });
        let alg = self.ok("frontend", alg)?;

        // sor-tune sets up and runs the tuner's winner, so it tunes first;
        // the other workloads tune after setup so that the plan's memory
        // growth is measured on a fresh heap.
        if tuned.is_none() && w == Workload::SorTune {
            *tuned = Some(self.tune(&alg)?);
        }
        let h = tuned.as_ref().map_or_else(|| w.h(), |t| t.winner.h.clone());

        // Setup: source text → compiled plan of the H this workload runs.
        let (transform, s_transform) = self.time("tiling.transform", || TilingTransform::new(h));
        let transform = self.ok("transform", transform)?;
        let (reg_c, owned) = (self.registry(), alg.clone());
        let rss_before = proc_status_mib("VmRSS:");
        let (pipe, s_compile) = self.time("core.compile_transform", || {
            let obs = reg_c.as_ref().map(|r| &*r.0);
            Pipeline::compile_observed(owned, transform, Some(m), obs)
        });
        let plan_rss_mb = proc_status_mib("VmRSS:") - rss_before;
        self.adopt(&reg_c, s_compile);
        let pipe = self.ok("compile", pipe)?;
        let procs = pipe.num_procs();
        if let Some(want) = w.ranks() {
            self.out.check(
                "ranks",
                procs == want,
                format!("{procs} ranks, want {want}"),
            );
        }
        if tuned.is_none() {
            *tuned = Some(self.tune(&alg)?);
        }
        let winner_makespan = tuned.as_ref()?.winner.summary.makespan;

        // Timing-only simulate: what `tilecc run` costs after setup.
        let reg_s = self.registry();
        let (sim, s_sim) = self.time("core.simulate", || {
            pipe.simulate_backend(model, ExecStrategy::Compiled, backend, engine(&reg_s))
        });
        let sim = self.ok("simulate", sim)?;

        // Full run: parallel execution plus the driver gather.
        let reg_f = self.registry();
        let (full, s_full) = self.time("core.execute_full", || {
            let (plan, opts) = (pipe.plan().clone(), engine(&reg_f));
            execute_backend(
                plan,
                model,
                ExecMode::Full,
                ExecStrategy::Compiled,
                backend,
                opts,
            )
        });
        self.adopt(&reg_f, s_full);
        let full = self.ok("execute_full", full)?;
        let data = self.ok(
            "execute_full",
            full.data.as_ref().ok_or("no data in Full mode"),
        )?;
        let iters = full.total_iterations;
        self.out.check(
            "iterations",
            iters == w.iterations() && sim.iterations == iters,
            format!(
                "full {iters}, simulate {}, want {}",
                sim.iterations,
                w.iterations()
            ),
        );
        let makespan = full.makespan();
        let (messages, bytes) = (full.report.total_messages(), full.report.total_bytes());
        self.out.check(
            "simulate_matches_full",
            sim.makespan.to_bits() == makespan.to_bits()
                && sim.messages == messages
                && sim.bytes == bytes,
            format!("makespan {} vs {makespan}", sim.makespan),
        );
        self.out.check(
            "winner_makespan_reproduced",
            winner_makespan.to_bits() == makespan.to_bits(),
            format!("tune {winner_makespan} vs run {makespan}"),
        );
        self.out
            .ident("makespan_bits", format!("{:016x}", makespan.to_bits()));

        // Verification: the extra cost of `--verify`.
        let (seq, s_seq) = self.time("loopnest.sequential", || alg.execute_sequential());
        let (diff, s_diff) = self.time("loopnest.diff", || seq.diff(data));
        self.out.check(
            "bitwise_equal_sequential",
            diff.is_none(),
            format!("first differing point {diff:?}"),
        );

        // The TCP run must agree with a threaded run of the same plan.
        if backend == Backend::Tcp {
            let threaded = pipe.simulate_backend(
                model,
                ExecStrategy::Compiled,
                Backend::Threaded,
                EngineOptions::default(),
            );
            let (ok, detail) = match threaded {
                Ok(th) => (
                    th.makespan.to_bits() == makespan.to_bits()
                        && th.messages == messages
                        && th.bytes == bytes,
                    format!(
                        "threaded {} {}msg {}B vs tcp {makespan} {messages}msg {bytes}B",
                        th.makespan, th.messages, th.bytes
                    ),
                ),
                Err(e) => (false, e.to_string()),
            };
            self.out.check("tcp_matches_threaded", ok, detail);
        }

        let durations: Vec<f64> = self.out.spans.iter().map(JobSpan::secs).collect();
        let s = |i: usize| durations[i];
        let setup_s = s(s_front) + s(s_transform) + s(s_compile);
        let verify_s = s(s_seq) + s(s_diff);
        let metrics = vec![
            ("setup_s", setup_s),
            ("simulate_s", s(s_sim)),
            ("points_per_s", iters as f64 / s(s_full)),
            ("verify_s", verify_s),
            ("virtual_makespan_s", makespan),
            ("total_s", setup_s + s(s_sim) + s(s_full) + verify_s),
        ];
        if !self.traced {
            return Some((metrics, vec![]));
        }

        // ---- per-layer breakdown (traced jobs only) ----
        let plan: Vec<f64> = [
            "tiling.validate",
            "tiling.tiled_space",
            "tiling.distribution",
            "tiling.comm_plan",
            "tiling.lds_geometry",
            "parcode.compile_chain",
        ]
        .iter()
        .map(|n| self.child_secs(s_compile, n))
        .collect();
        let plan_s: f64 = plan.iter().sum();
        let coverage = (s(s_front) + s(s_transform) + plan_s) / setup_s;
        let gather = self.child_secs(s_full, "parcode.gather");
        let full_reg = &reg_f.as_ref()?.0;
        let rank_spans: Vec<Span> = full_reg
            .spans()
            .into_iter()
            .filter(|s| s.pid != 0)
            .collect();
        let phase = |p: Phase| -> (f64, usize) {
            let sel = rank_spans.iter().filter(|s| s.phase == p);
            let secs = sel
                .clone()
                .map(|s| (s.wall_end_ns - s.wall_start_ns) as f64 * 1e-9)
                .sum();
            (secs, sel.count())
        };
        let counter = |c: Counter| -> u64 { full_reg.ranks().iter().map(|r| r.get(c)).sum() };
        let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let (compute_s, compute_calls) = phase(Phase::Compute);
        let chain_lengths: u64 = reg_c
            .as_ref()?
            .0
            .spans()
            .iter()
            .filter(|s| s.phase == Phase::CompileChain)
            .map(|s| s.detail)
            .sum();
        let layers = vec![
            ("frontend.compile_kernel_s", s(s_front)),
            ("tiling.transform_s", s(s_transform)),
            ("tiling.validate_s", plan[0]),
            ("tiling.tiled_space_s", plan[1]),
            ("tiling.distribution_s", plan[2]),
            ("tiling.comm_plan_s", plan[3]),
            ("tiling.lds_geometry_s", plan[4]),
            ("tiling.tiles_valid", counter(Counter::Tiles) as f64),
            (
                "tiling.boundary_tile_share",
                share(counter(Counter::BoundaryTiles), counter(Counter::Tiles)),
            ),
            ("parcode.compile_chain_s", plan[5]),
            ("parcode.chain_lengths", chain_lengths as f64),
            ("parcode.plan_rss_mb", plan_rss_mb),
            ("core.compile_self_s", s(s_compile) - plan_s),
            ("trace.setup_coverage", coverage),
            ("parcode.compute_s", compute_s),
            ("parcode.compute_calls", compute_calls as f64),
            (
                "parcode.batched_share",
                share(
                    counter(Counter::VectorizedPoints),
                    counter(Counter::Iterations),
                ),
            ),
            ("parcode.pack_s", phase(Phase::Pack).0),
            ("parcode.unpack_s", phase(Phase::Unpack).0),
            ("parcode.gather_s", gather),
            ("cluster.run_self_s", s(s_full) - gather),
            ("cluster.messages", messages as f64),
            ("cluster.bytes", bytes as f64),
            (
                "cluster.retransmits",
                full.report.total_retransmissions() as f64,
            ),
            ("cluster.send_s", phase(Phase::Send).0),
            ("cluster.recv_wait_s", phase(Phase::Recv).0),
            ("cluster.rank_threads", (sim.procs + procs) as f64),
            ("loopnest.sequential_s", s(s_seq)),
            ("loopnest.diff_s", s(s_diff)),
            ("core.virtual_makespan", makespan),
        ];
        Some((metrics, layers))
    }
}

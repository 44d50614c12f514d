//! `tilecc-perfbench`: one end-to-end benchmark for `tilecc`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload jacobi-bulk --seed 1 --seconds 42 --trace 0
//! ```
//!
//! The parent process runs jobs one at a time (a closed loop with a single
//! client) until `--seconds` have passed. Each job is a fresh process that
//! runs the workload once through the public API (see [`job`]), so every
//! job pays what one `tilecc` invocation pays and its peak RSS belongs to
//! that workload alone. The parent checks every job, pools the samples of
//! every job's passes, prints a table of every metric with its unit (see
//! [`report::run_figure`] for the figure a timed metric reports), writes
//! the samples and spans to `.bench_out/`, and prints the result JSON as its
//! last stdout line.
//!
//! `--trace 1` alternates untraced jobs with traced ones (which hand a
//! metrics registry to the plan compiler and the engine) and reports the
//! per-layer metrics instead; `trace.overhead_s` is the difference of the
//! two kinds' median totals.

mod job;
mod report;
mod workload;

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{
    json_obj, json_samples, json_str, median, run_figure, tail, Metric, END_TO_END, PER_LAYER,
    PRINTED_ONLY,
};
use workload::Workload;

/// Jobs of each kind a run makes even when `--seconds` is short.
const MIN_JOBS: usize = 3;
/// No job starts after this much of a run; a job still running when the
/// hard deadline passes is killed and counted as failed.
const LAST_START: Duration = Duration::from_secs(120);
const HARD_DEADLINE: Duration = Duration::from_secs(170);
/// Where runs leave their samples and spans.
const OUT_DIR: &str = ".bench_out";

struct Args {
    /// `None`: every workload, one run each.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    job: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut job) = (None, 0, 10, false, false);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = match v.as_str() {
                    "all" => Some(None),
                    _ => Some(Some(
                        Workload::parse(&v).ok_or(format!("unknown workload {v}"))?,
                    )),
                };
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--job" => job = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload NAME|all is required")?,
        seed,
        seconds,
        trace,
        job,
    })
}

/// A finished job as the parent sees it.
struct Record {
    traced: bool,
    exited_ok: bool,
    /// Every sample of each name, one per pass (or per job).
    metrics: BTreeMap<String, Vec<f64>>,
    layers: BTreeMap<String, Vec<f64>>,
    /// `(name, passed, detail)`.
    checks: Vec<(String, bool, String)>,
    idents: BTreeMap<String, String>,
    /// `(name, parent, start_ns, end_ns)`.
    spans: Vec<(String, i64, u64, u64)>,
}

impl Record {
    fn parse(traced: bool, exited_ok: bool, text: &str) -> Record {
        let mut r = Record {
            traced,
            exited_ok,
            metrics: BTreeMap::new(),
            layers: BTreeMap::new(),
            checks: vec![],
            idents: BTreeMap::new(),
            spans: vec![],
        };
        for line in text.lines() {
            let mut f = line.splitn(3, ' ');
            let (kind, name, rest) = (f.next(), f.next(), f.next().unwrap_or(""));
            let (Some(kind), Some(name)) = (kind, name) else {
                continue;
            };
            let name = name.to_string();
            match kind {
                "metric" | "layer" => {
                    let v = rest.parse().unwrap_or(f64::NAN);
                    let map = if kind == "metric" {
                        &mut r.metrics
                    } else {
                        &mut r.layers
                    };
                    map.entry(name).or_default().push(v);
                }
                "check" => {
                    let (ok, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                    r.checks.push((name, ok == "1", detail.to_string()));
                }
                "ident" => {
                    r.idents.insert(name, rest.to_string());
                }
                "span" => {
                    let v: Vec<i64> = rest.split(' ').filter_map(|x| x.parse().ok()).collect();
                    if let [parent, start, end] = v[..] {
                        r.spans.push((name, parent, start as u64, end as u64));
                    }
                }
                _ => {}
            }
        }
        if !r.exited_ok {
            r.checks
                .push(("job_exit".into(), false, "job process failed".into()));
        }
        r
    }

    fn passed(&self) -> bool {
        self.exited_ok && !self.checks.is_empty() && self.checks.iter().all(|c| c.1)
    }
}

/// Run one job in a fresh process of this binary.
fn spawn_job(w: Workload, seed: u64, traced: bool, deadline: Instant) -> Record {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return Record::parse(traced, false, &format!("check spawn 0 {e}")),
    };
    let child = Command::new(exe)
        .args(["--job", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => return Record::parse(traced, false, &format!("check spawn 0 {e}")),
    };
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(st)) => break Some(st),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    let exited_ok = status.is_some_and(|s| s.success());
    Record::parse(traced, exited_ok, &text)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    if args.job {
        let [w] = workloads[..] else {
            eprintln!("perfbench: --job needs one workload");
            return ExitCode::from(2);
        };
        print!("{}", job::run(w, args.seed, args.trace).render());
        return ExitCode::SUCCESS;
    }
    let mut ok = true;
    for w in workloads {
        ok &= run(&args, w);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run of workload `w`: jobs until `--seconds` have passed, then the
/// table, the details file and the result JSON. Returns whether the run
/// is correct and complete.
fn run(args: &Args, w: Workload) -> bool {
    let t0 = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut jobs: Vec<Record> = vec![];
    loop {
        let count = |traced| jobs.iter().filter(|j| j.traced == traced).count();
        let (untraced, traced) = (count(false), count(true));
        let enough = untraced >= MIN_JOBS && (!args.trace || traced >= MIN_JOBS);
        if (enough && t0.elapsed() >= budget) || t0.elapsed() >= LAST_START {
            break;
        }
        // Traced runs alternate the two kinds, untraced first.
        let next_traced = args.trace && traced < untraced;
        jobs.push(spawn_job(w, args.seed, next_traced, t0 + HARD_DEADLINE));
    }
    let wall = t0.elapsed().as_secs_f64();

    // Values that must agree across every job of the run.
    for key in ["winner_h", "makespan_bits"] {
        let first = jobs.iter().find_map(|j| j.idents.get(key)).cloned();
        for j in jobs.iter_mut().filter(|j| j.exited_ok) {
            if j.idents.get(key) != first.as_ref() {
                let detail = format!("{key} differs from the run's first job");
                j.checks
                    .push(("identical_across_jobs".into(), false, detail));
            }
        }
    }
    let attempted = jobs.len();
    let failed = jobs.iter().filter(|j| !j.passed()).count();

    let samples = |traced: bool, layer: bool, name: &str| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.traced == traced && j.passed())
            .flat_map(|j| if layer { &j.layers } else { &j.metrics }.get(name))
            .flatten()
            .copied()
            .collect()
    };
    let mut out = format!(
        "tilecc perfbench: workload {}, seed {}, trace {}, {attempted} jobs in {wall:.1} s \
         (closed loop, one job at a time, a fresh process per job)\n\
         {:<28} {:>14} {:>14} {:>18} {:>5}  {:<10} moves\n",
        w.name(),
        args.seed,
        args.trace as u8,
        "metric",
        "value",
        "median",
        "tail",
        "n",
        "unit"
    );
    let mut result: Vec<(&str, f64, &str)> = vec![];
    let mut summary: BTreeMap<String, f64> = BTreeMap::new();
    let mut row = |out: &mut String, m: &Metric, xs: &[f64], value: f64| {
        let tail = tail(xs, m.better == "higher")
            .map_or("n/a (n<11)".to_string(), |(p, v)| format!("p{p:.0} {v:.6}"));
        *out += &format!(
            "{:<28} {value:>14.6} {:>14.6} {tail:>18} {:>5}  {:<10} {}\n",
            m.name,
            median(xs),
            xs.len(),
            m.unit,
            m.moves
        );
        summary.insert(m.name.to_string(), value);
    };
    if !args.trace {
        for m in END_TO_END.iter().chain(PRINTED_ONLY) {
            let xs: Vec<f64> = match m.name {
                "fail_rate" => jobs.iter().map(|j| f64::from(!j.passed() as u8)).collect(),
                _ => samples(false, false, m.name),
            };
            let value = match m.name {
                // A job's peak lands on one of a few allocator-dependent
                // levels (~57, ~67 or ~76 MiB on adi-chatty-tcp), so the
                // median of a run flips between them; the mean does not.
                "fail_rate" | "peak_rss_mb" => xs.iter().sum::<f64>() / xs.len() as f64,
                "virtual_makespan_s" => median(&xs),
                _ => run_figure(&xs, m.better == "higher"),
            };
            row(&mut out, m, &xs, value);
            if END_TO_END.iter().any(|e| e.name == m.name) {
                result.push((m.name, value, m.unit));
            }
        }
    } else {
        let total = |traced| median(&samples(traced, false, "total_s"));
        for m in PER_LAYER {
            let (xs, med) = if m.name == "trace.overhead_s" {
                (samples(true, false, "total_s"), total(true) - total(false))
            } else {
                let xs = samples(true, true, m.name);
                let med = median(&xs);
                (xs, med)
            };
            row(&mut out, m, &xs, med);
            result.push((m.name, med, m.unit));
        }
    }
    for (i, j) in jobs.iter().enumerate() {
        for (name, _, detail) in j.checks.iter().filter(|c| !c.1) {
            out += &format!("FAILED job {i}: {name}: {detail}\n");
        }
    }
    print!("{out}");
    if let Err(e) = write_details(args, w, &jobs, &summary) {
        eprintln!("perfbench: cannot write {OUT_DIR}: {e}");
    }
    // A result without every metric is not a result.
    let ok = failed == 0 && result.iter().all(|(_, v, _)| v.is_finite());
    println!("{}", report::result_json(ok, attempted, failed, &result));
    ok
}

/// Write every job's samples, checks and spans (with self times) to
/// `.bench_out/<workload>-seed<seed>-trace<t>.json`.
fn write_details(
    args: &Args,
    w: Workload,
    jobs: &[Record],
    summary: &BTreeMap<String, f64>,
) -> std::io::Result<()> {
    let mut s = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"summary\": {}, \"jobs\": [",
        json_str(w.name()),
        args.seed,
        args.trace,
        json_obj(summary)
    );
    for (i, j) in jobs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let checks: Vec<String> = j
            .checks
            .iter()
            .map(|(n, ok, d)| {
                format!(
                    "{{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                    json_str(n),
                    json_str(d)
                )
            })
            .collect();
        let spans: Vec<String> = j
            .spans
            .iter()
            .enumerate()
            .map(|(k, (name, parent, start, end))| {
                let children: u64 = j
                    .spans
                    .iter()
                    .filter(|c| c.1 == k as i64)
                    .map(|c| c.3 - c.2)
                    .sum();
                format!(
                    "{{\"id\": {k}, \"name\": {}, \"parent\": {parent}, \"start_ns\": {start}, \
                     \"end_ns\": {end}, \"self_ns\": {}}}",
                    json_str(name),
                    (end - start).saturating_sub(children)
                )
            })
            .collect();
        s += &format!(
            "{{\"job\": {i}, \"traced\": {}, \"passed\": {}, \"metrics\": {}, \"layers\": {}, \
             \"checks\": [{}], \"spans\": [{}]}}",
            j.traced,
            j.passed(),
            json_samples(&j.metrics),
            json_samples(&j.layers),
            checks.join(", "),
            spans.join(", ")
        );
    }
    s.push_str("]}\n");
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        args.trace as u8
    );
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_parses_the_job_protocol() {
        let text = "metric setup_s 0.5\nlayer parcode.gather_s 0.25\n\
                    check ranks 1 2 ranks, want 2\nident winner_h [1/2,0]\n\
                    span core.simulate -1 10 30\nspan parcode.gather 0 12 20\n";
        let r = Record::parse(false, true, text);
        assert_eq!(r.metrics["setup_s"], [0.5]);
        assert_eq!(r.layers["parcode.gather_s"], [0.25]);
        assert_eq!(
            r.checks,
            [("ranks".to_string(), true, "2 ranks, want 2".to_string())]
        );
        assert_eq!(r.idents["winner_h"], "[1/2,0]");
        assert_eq!(r.spans[1], ("parcode.gather".to_string(), 0, 12, 20));
        assert!(r.passed());
        assert!(!Record::parse(false, false, text).passed());
        assert!(!Record::parse(false, true, "metric setup_s 0.5\n").passed());
    }

    #[test]
    fn job_output_survives_the_protocol() {
        let mut o = job::JobOutput::default();
        o.metrics.push(("setup_s", 0.123_456_789_012_345_67));
        o.metrics.push(("setup_s", 0.5));
        o.checks.push((
            "bitwise_equal_sequential",
            false,
            "first differing\npoint".into(),
        ));
        let r = Record::parse(false, true, &o.render());
        assert_eq!(
            r.metrics["setup_s"][0].to_bits(),
            0.123_456_789_012_345_67f64.to_bits()
        );
        assert_eq!(r.metrics["setup_s"][1], 0.5);
        assert_eq!(r.checks[0].2, "first differing point");
        assert!(!r.passed());
    }
}

//! `kcbbench` — the kcb lifecycle benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path kcbbench/Cargo.toml -- \
//!     --workload repro-all --seed 1 --seconds 6 --trace 0
//! ```
//!
//! Run from the repository root. It builds `repro` (outside every timed
//! phase), then drives it through a user's lifecycle on one workload, in
//! rounds that each start from empty workspaces:
//!
//! 1. **set-up**: a cold `repro <ids> --fast --threads 1` into a fresh
//!    cache and journal, then `repro serve --port 0` on that cache up to
//!    its first reply;
//! 2. **serve**: a closed loop of pipelined connections (at most nproc),
//!    then a fixed-rate open loop on one connection, against that daemon;
//! 3. **warm**: reruns of the same command on the filled cache, each from
//!    a restored copy of the post-set-up runs directory;
//! 4. **sweep**: a cold `repro sweep --grid G` into a fresh workspace.
//!
//! Every output is checked (see [`Gates`]). `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs one round and then the in-process
//! traced pass ([`traced`]), and prints the per-layer metrics. The last
//! stdout line is the result object.

mod lifecycle;
mod load;
mod procfs;
mod stats;
mod traced;
mod workload;

use lifecycle::{Repro, Workspace};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workload::Workload;

const USAGE: &str = "usage: kcbbench --workload <repro-all|supervised-slice> --seed <n> \
                     --seconds <n> --trace <0|1>";

/// Whole lifecycles per `--trace 0` run. Each end-to-end metric is taken
/// over all of them (a median, or a total for the phases that run for
/// seconds), so a slow spell of the host lands in one round instead of
/// moving the run's figure.
const ROUNDS: usize = 3;
/// The untraced lifecycle of a `--trace 1` run only feeds the per-layer
/// figures taken from outside the program.
const TRACE_ROUNDS: usize = 1;
/// Warm reruns per round.
const WARM_REPS: usize = 7;
/// Traced in-process warm reruns.
const TRACED_WARM_REPS: usize = 7;
/// Requests per generated stream; the loops cycle through it.
const STREAM_LEN: usize = 4096;
/// fsync'd appends timed for `core.journal.append_us`.
const JOURNAL_APPENDS: usize = 41;

/// Where runs keep their workspaces, under the directory the benchmark
/// runs from.
const RUN_DIR: &str = ".kcbbench_run";

/// The environment `repro` re-execs itself with (glibc keeps freed pages in
/// the arena), so the in-process traced pass allocates the way it does.
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", "1073741824"),
    ("MALLOC_MMAP_THRESHOLD_", "268435456"),
];
const MALLOC_MARKER: &str = "KCBBENCH_MALLOC_TUNED";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value}")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Re-execs this binary once with [`MALLOC_ENV`] set; the variables must be
/// in place before the first allocation.
fn tune_allocator_via_reexec() {
    if std::env::var_os(MALLOC_MARKER).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    use std::os::unix::process::CommandExt;
    let err = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(MALLOC_MARKER, "1")
        .envs(MALLOC_ENV)
        .exec();
    eprintln!("kcbbench: re-exec failed ({err}); running with the default allocator");
}

/// Builds `repro` with the repository's own manifest and lock file and
/// returns the binary's path.
fn build_repro(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "kcb-bench",
            "--bin",
            "repro",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let bin = root.join(target).join("release").join("repro");
    bin.is_file()
        .then_some(bin)
        .ok_or_else(|| "repro binary not found after build".to_string())
}

/// The commit being measured: `.git/HEAD` resolved in the working
/// directory, or `unknown` in a checkout without one.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).ok().or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.len() - r.len()].to_string())
        }),
        None => Some(head),
    };
    rev.map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Operations attempted and failed, per lifecycle phase. Every check that
/// trips counts as one failed operation.
#[derive(Default)]
struct Gates {
    phases: Vec<(&'static str, u64, u64)>,
}

impl Gates {
    fn count(&mut self, phase: &'static str, attempted: u64, failed: u64) {
        match self.phases.iter_mut().find(|p| p.0 == phase) {
            Some(p) => {
                p.1 += attempted;
                p.2 += failed;
            }
            None => self.phases.push((phase, attempted, failed)),
        }
    }

    fn check(&mut self, phase: &'static str, ok: bool, what: &str) {
        if !ok {
            eprintln!("kcbbench: {phase}: check failed: {what}");
        }
        self.count(phase, 1, u64::from(!ok));
    }

    fn totals(&self) -> (u64, u64) {
        self.phases
            .iter()
            .fold((0, 0), |(a, f), p| (a + p.1, f + p.2))
    }
}

/// Named metrics with units, in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(n, v, u)| (n.clone(), serde_json::json!({"value": *v, "unit": *u})))
                .collect(),
        )
    }
}

const MB: f64 = 1e6;

/// Progress on stderr, stamped with seconds since the run started.
fn progress(t0: std::time::Instant, what: &str) {
    eprintln!("kcbbench: [{:7.2}s] {what}", t0.elapsed().as_secs_f64());
}

/// What the untraced lifecycle rounds measured, pooled over the rounds.
#[derive(Default)]
struct Lifecycle {
    setup_s: Vec<f64>,
    cold_hwm_kb: Vec<f64>,
    cold_written_b: Vec<f64>,
    cold_cpu_s: Vec<f64>,
    /// Bytes a set-up leaves in its workspace (cache + runs).
    left_b: Vec<f64>,
    derived_b: Vec<f64>,
    journal_appends: Vec<f64>,
    warm_s: Vec<f64>,
    warm_written_b: Vec<f64>,
    warm_appends: Vec<f64>,
    sweep_s: Vec<f64>,
    /// Replies completed by the closed loops, and their summed durations.
    closed_replies: f64,
    closed_s: f64,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    queue_wait_mean_us: Vec<f64>,
    batch_mean: Vec<f64>,
    daemon_rss_mb: Vec<f64>,
    /// The last round's serving snapshot and open-loop stream, kept for
    /// the traced pass.
    last: Option<(
        kcb_core::snapshot::Snapshot,
        Vec<kcb_serve::protocol::Request>,
    )>,
}

fn io_err(e: std::io::Error, what: &str) -> String {
    format!("{what}: {e}")
}

/// Runs `rounds` whole lifecycles (set-up, serve, warm, sweep), each from
/// empty workspaces, splitting `--seconds` of serving load evenly between
/// them and between the closed and the open loop.
fn lifecycle(
    args: &Args,
    repro: &Repro,
    work: &Path,
    rounds: usize,
    gates: &mut Gates,
) -> Result<Lifecycle, String> {
    let wl = &args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load_time = Duration::from_secs_f64(args.seconds as f64 / (2 * rounds) as f64);
    let t0 = std::time::Instant::now();
    let mut lc = Lifecycle::default();
    let mut cold_stdout: Option<Vec<u8>> = None;
    for round in 0..rounds {
        // 1. Set-up: the cold reproduction, then the daemon on its cache.
        let ws = Workspace::fresh(work.join(format!("round{round}")))
            .map_err(|e| io_err(e, "workspace"))?;
        let s = lifecycle::setup(repro, wl, &ws).map_err(|e| io_err(e, "set-up"))?;
        gates.count("setup", 2, 0);
        progress(t0, &format!("round {round}: set-up {:.3}s", s.setup_s));
        lc.setup_s.push(s.setup_s);
        lc.cold_hwm_kb.push(s.cold.hwm_kb as f64);
        lc.cold_written_b.push(s.cold.written_b as f64);
        lc.cold_cpu_s.push(s.cold.cpu_s);
        let cold_stdout = cold_stdout.get_or_insert_with(|| s.cold.stdout.clone());
        gates.check(
            "setup",
            *cold_stdout == s.cold.stdout,
            "cold output repeats across rounds",
        );
        let post_runs = work.join(format!("round{round}-post-setup-runs"));
        lifecycle::restore_dir(&ws.runs(), &post_runs).map_err(|e| io_err(e, "copy runs"))?;
        lc.left_b
            .push((lifecycle::tree_bytes(&ws.cache()) + lifecycle::tree_bytes(&ws.runs())) as f64);
        lc.derived_b
            .push(lifecycle::derived_bytes(&ws.cache()) as f64);
        lc.journal_appends
            .push(lifecycle::journal_records(&ws.runs()) as f64);

        // 2. Serve, checked against a snapshot frozen from the same cache.
        let daemon = s.daemon;
        let lab = kcb_core::lab::Lab::with_checkpoints(
            traced::lab_config(args.seed),
            std::sync::Arc::new(kcb_core::ckpt::CkptStore::open(ws.cache())),
        );
        let snap =
            kcb_core::snapshot::Snapshot::freeze(&lab, kcb_core::snapshot::SnapshotSpec::default());
        drop(lab);
        let bert = snap
            .bert()
            .map(kcb_core::snapshot::BertWeights::instantiate);
        let closed_streams: Vec<Vec<load::Item>> = (0..nproc)
            .map(|c| {
                let reqs = load::requests(&snap, args.seed, c, STREAM_LEN, wl.bert);
                load::items(&snap, bert.as_ref(), &reqs)
            })
            .collect();
        let open_stream = load::requests(&snap, args.seed, nproc, STREAM_LEN, wl.bert);
        let open_items = load::items(&snap, bert.as_ref(), &open_stream);
        drop(bert);
        let closed = load::closed_loop(daemon.addr, &closed_streams, load_time, wl.scrape_every)
            .map_err(|e| io_err(e, "closed loop"))?;
        gates.count("serve", closed.sent, closed.failed);
        let scrapes = closed.scrape_ms.len() as u64 + closed.scrape_failed;
        gates.count("serve", scrapes, closed.scrape_failed);
        gates.check(
            "serve",
            closed.checksum_ok,
            "closed-loop replies match answer_serial",
        );
        let open = load::open_loop(daemon.addr, &open_items, wl.open_rate, load_time)
            .map_err(|e| io_err(e, "open loop"))?;
        gates.count("serve", open.sent, open.failed);
        gates.check(
            "serve",
            open.checksum_ok,
            "open-loop replies match answer_serial",
        );
        let body = load::scrape(daemon.addr).map(|(_, b)| b);
        gates.check("serve", body.is_ok(), "GET /metrics after the load");
        let body = body.unwrap_or_default();
        lc.queue_wait_mean_us
            .push(load::hist_mean(&body, "serve_queue_wait_us").unwrap_or(0.0));
        lc.batch_mean
            .push(load::hist_mean(&body, "serve_batch_size").unwrap_or(0.0));
        lc.daemon_rss_mb
            .push(procfs::vm_hwm_kb(daemon.pid()).unwrap_or(0) as f64 * 1024.0 / MB);
        gates.check("serve", daemon.shutdown(), "daemon drains and exits 0");
        lc.closed_replies += closed.sent as f64;
        lc.closed_s += closed.elapsed_s;
        lc.latency_ms.extend(open.latency_ms);
        lc.late_ms.extend(open.late_ms);
        lc.scrape_ms.extend(closed.scrape_ms);
        lc.last = Some((snap, open_stream));
        progress(t0, &format!("round {round}: serve done"));

        // 3. Warm reruns, each from the post-set-up runs directory.
        for _ in 0..WARM_REPS {
            lifecycle::restore_dir(&post_runs, &ws.runs())
                .map_err(|e| io_err(e, "restore runs"))?;
            let before = lifecycle::journal_records(&ws.runs());
            let run =
                lifecycle::run_measured(ws.reproduce(repro, wl)).map_err(|e| io_err(e, "warm"))?;
            gates.check("warm", run.ok, "warm rerun exits 0");
            gates.check(
                "warm",
                run.stdout == *cold_stdout,
                "warm output equals set-up output",
            );
            lc.warm_s.push(run.wall_s);
            lc.warm_written_b.push(run.written_b as f64);
            let after = lifecycle::journal_records(&ws.runs());
            lc.warm_appends.push(after.saturating_sub(before) as f64);
        }
        progress(t0, &format!("round {round}: warm done"));

        // 4. The cold sweep.
        let sws = Workspace::fresh(work.join(format!("round{round}-sweep")))
            .map_err(|e| io_err(e, "workspace"))?;
        let sweep = lifecycle::sweep(repro, wl, &sws).map_err(|e| io_err(e, "sweep"))?;
        gates.check("sweep", sweep.ok, "sweep exits 0");
        gates.check(
            "sweep",
            lifecycle::sweep_tables_written(&sws.root),
            "sweep wrote its tables",
        );
        lc.sweep_s.push(sweep.wall_s);
        progress(t0, &format!("round {round}: sweep {:.3}s", sweep.wall_s));
        for dir in [&ws.root, &post_runs, &sws.root] {
            std::fs::remove_dir_all(dir).map_err(|e| io_err(e, "cleanup"))?;
        }
    }
    Ok(lc)
}

fn end_to_end(lc: &Lifecycle, m: &mut Metrics) {
    m.put("setup_s", stats::median(&lc.setup_s), "s");
    m.put(
        "peak_rss_mb",
        stats::median(&lc.cold_hwm_kb) * 1024.0 / MB,
        "MB",
    );
    m.put("written_mb", stats::median(&lc.cold_written_b) / MB, "MB");
    m.put("warm_s", stats::median(&lc.warm_s), "s");
    // Sweeps and closed loops run for seconds, long enough that a slow
    // spell of the host covers whole rounds: their figures are totals over
    // the rounds, which average fast and slow spells where a median of
    // three would jump between them.
    m.put("sweep_s", stats::mean(&lc.sweep_s), "s");
    m.put("serve_qps", lc.closed_replies / lc.closed_s, "req/s");
    m.put(
        "serve_p50_ms",
        stats::percentile(&lc.latency_ms, 50.0),
        "ms",
    );
}

fn print_breakdown(b: &traced::Breakdown) {
    println!("# trace {}: wall {:.6} s", b.phase, b.wall_s);
    for (name, s) in &b.parts {
        println!("#   {name:<28} {s:.6} s");
    }
    println!("#   {:<28} {:.6} s", "residual", b.residual_s());
}

fn per_layer(
    args: &Args,
    repro: &Repro,
    work: &Path,
    lc: &Lifecycle,
    m: &mut Metrics,
    gates: &mut Gates,
) -> Result<(), String> {
    let wl = &args.workload;
    let cfg = traced::lab_config(args.seed);
    let mut ids: Vec<String> = wl.ids.iter().map(|s| s.to_string()).collect();
    kcb_bench::cli::expand_aliases(&mut ids);
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    let mut t = traced::Tracer::new();

    let (snap, open_stream) = lc.last.as_ref().ok_or("no lifecycle round ran")?;
    let bert = snap
        .bert()
        .map(kcb_core::snapshot::BertWeights::instantiate);
    let layers = traced::serve_layers(snap, bert.as_ref(), open_stream);
    drop(bert);

    let ws = Workspace::fresh(work.join("trace")).map_err(|e| io_err(e, "workspace"))?;
    let setup = traced::setup(&mut t, &cfg, &ids, &ws);
    let post_runs = work.join("trace-post-setup-runs");
    lifecycle::restore_dir(&ws.runs(), &post_runs).map_err(|e| io_err(e, "copy runs"))?;
    let warm = traced::warm(
        &mut t,
        &repro.bin,
        &cfg,
        &ids,
        &ws,
        &post_runs,
        &setup.run_dir,
        TRACED_WARM_REPS,
    )
    .map_err(|e| io_err(e, "traced warm"))?;
    let sws = Workspace::fresh(work.join("trace-sweep")).map_err(|e| io_err(e, "workspace"))?;
    let sweep = traced::sweep(&mut t, &cfg, &wl.grid(args.seed), &sws);
    gates.check("trace", sweep.tables_ok, "traced sweep wrote its tables");
    gates.check(
        "trace",
        lc.journal_appends
            .iter()
            .all(|&n| n == setup.appends as f64),
        "traced set-up journals as many records as the CLI set-up",
    );
    let append_us = traced::journal_append_us(&work.join("journal-probe"), JOURNAL_APPENDS)
        .map_err(|e| io_err(e, "journal probe"))?;
    let spans = serde_json::to_string(&t.to_json()).expect("renderable");
    let spans_path = work
        .parent()
        .unwrap_or(work)
        .join(format!("{}-spans.json", wl.name));
    std::fs::write(&spans_path, spans).map_err(|e| io_err(e, "write spans"))?;

    for b in [&setup.breakdown, &warm.breakdown, &sweep.breakdown] {
        print_breakdown(b);
    }
    let part = |b: &traced::Breakdown, name: &str| {
        b.parts.iter().find(|p| p.0 == name).map_or(0.0, |p| p.1)
    };
    let sb = &setup.breakdown;
    for name in [
        "ontology.build_s",
        "text.corpus_s",
        "text.wordpiece_s",
        "embed.train_s",
        "embed.biowordvec_s",
        "lm.pretrain_s",
        "lm.finetune_s",
        "icl.prompt_s",
        "ml.forest_s",
    ] {
        m.put(name, part(sb, name), "s");
    }
    m.put("ml.forest_fits", setup.forest_fits as f64, "count");
    m.put("ml.lstm_s", part(sb, "ml.lstm_s"), "s");
    m.put(
        "core.plan.assembly_s",
        part(sb, "core.plan.assembly_s"),
        "s",
    );
    m.put("core.cache.memo_hit_ratio", setup.memo_hit_ratio, "ratio");
    m.put(
        "core.cache.encoding_hit_ratio",
        setup.encoding_hit_ratio,
        "ratio",
    );
    m.put("core.ckpt.save_s", part(sb, "core.ckpt.save_s"), "s");
    m.put(
        "core.ckpt.derived_mb",
        stats::median(&lc.derived_b) / MB,
        "MB",
    );
    let written_b = stats::median(&lc.cold_written_b);
    m.put(
        "core.ckpt.write_amplification",
        written_b / stats::median(&lc.left_b),
        "ratio",
    );
    m.put(
        "core.journal.appends",
        stats::median(&lc.journal_appends),
        "count",
    );
    m.put("core.journal.append_us", append_us, "us");
    m.put("bench.cold_cpu_s", stats::median(&lc.cold_cpu_s), "s");
    m.put(
        "core.snapshot.freeze_s",
        part(sb, "core.snapshot.freeze_s"),
        "s",
    );
    m.put("trace.setup_residual_s", sb.residual_s(), "s");

    let wb = &warm.breakdown;
    m.put("bench.spawn_ms", part(wb, "bench.spawn_ms") * 1e3, "ms");
    m.put("core.ckpt.open_s", part(wb, "core.ckpt.open_s"), "s");
    m.put("core.journal.load_s", warm.load_s, "s");
    m.put("core.plan.replay_s", part(wb, "core.plan.replay_s"), "s");
    m.put(
        "core.ckpt.warm_save_s",
        part(wb, "core.ckpt.warm_save_s"),
        "s",
    );
    m.put(
        "core.ckpt.warm_written_mb",
        stats::median(&lc.warm_written_b) / MB,
        "MB",
    );
    m.put(
        "core.journal.appends_warm",
        stats::median(&lc.warm_appends),
        "count",
    );
    m.put("trace.warm_residual_s", wb.residual_s(), "s");

    let swb = &sweep.breakdown;
    m.put("core.sweep.plan_s", sweep.plan_s, "s");
    m.put("core.sweep.shared_ratio", sweep.shared_ratio, "ratio");
    m.put(
        "core.sweep.provider_s",
        part(swb, "core.sweep.provider_s"),
        "s",
    );
    m.put("core.sweep.cell_s", part(swb, "core.sweep.cell_s"), "s");
    m.put("core.sweep.forest_s", sweep.forest_s, "s");
    m.put("core.sweep.forest_fits", sweep.forest_fits as f64, "count");
    m.put("core.sweep.finetune_s", sweep.finetune_s, "s");
    m.put("core.sweep.icl_s", sweep.icl_s, "s");
    m.put("trace.sweep_residual_s", swb.residual_s(), "s");

    m.put("serve.protocol.parse_us", layers.parse_us, "us");
    m.put("serve.protocol.render_us", layers.render_us, "us");
    m.put("core.snapshot.kernel_us.nn_f32", layers.nn_f32_us, "us");
    m.put("core.snapshot.kernel_us.nn_int8", layers.nn_int8_us, "us");
    m.put("core.snapshot.kernel_us.classify", layers.classify_us, "us");
    m.put("core.snapshot.kernel_us.embed", layers.embed_us, "us");
    m.put("core.snapshot.kernel_us.bert", layers.bert_us, "us");
    let served_p50_us = stats::percentile(&lc.latency_ms, 50.0) * 1e3;
    m.put("serve.gap_us", served_p50_us - layers.serial_p50_us, "us");
    m.put(
        "serve.engine.queue_wait_mean_us",
        stats::median(&lc.queue_wait_mean_us),
        "us",
    );
    m.put(
        "serve.engine.batch_mean",
        stats::median(&lc.batch_mean),
        "count",
    );
    let scrape_ms = if lc.scrape_ms.is_empty() {
        0.0
    } else {
        stats::median(&lc.scrape_ms)
    };
    m.put("obs.scrape_ms", scrape_ms, "ms");
    m.put(
        "serve.client.p99_ms",
        stats::percentile(&lc.latency_ms, 99.0),
        "ms",
    );
    m.put(
        "serve.client.late_ms",
        lc.late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.put(
        "serve.daemon_rss_mb",
        stats::median(&lc.daemon_rss_mb),
        "MB",
    );

    let traced_wall = sb.wall_s + wb.wall_s + swb.wall_s;
    let untraced =
        stats::median(&lc.setup_s) + stats::median(&lc.warm_s) + stats::mean(&lc.sweep_s);
    m.put(
        "trace.overhead_pct",
        100.0 * (traced_wall - untraced) / untraced,
        "%",
    );
    Ok(())
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let root = std::env::current_dir().map_err(|e| io_err(e, "cwd"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t_run = std::time::Instant::now();
    let bin = build_repro(&root)?;
    progress(t_run, "repro built");
    kcb_lm::pool::set_threads(1);
    let run_info = serde_json::json!({
        "workload": args.workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "git_rev": git_rev(&root),
    });
    println!("# run {run_info}");
    let work = root
        .join(RUN_DIR)
        .join(format!("{}-{}", args.workload.name, std::process::id()));
    Workspace::fresh(work.clone()).map_err(|e| io_err(e, "workspace"))?;
    let repro = Repro {
        bin,
        seed: args.seed,
    };
    let mut gates = Gates::default();
    let mut m = Metrics::default();
    let result = (|| {
        let rounds = if args.trace { TRACE_ROUNDS } else { ROUNDS };
        let lc = lifecycle(args, &repro, &work, rounds, &mut gates)?;
        if args.trace {
            per_layer(args, &repro, &work, &lc, &mut m, &mut gates)
        } else {
            end_to_end(&lc, &mut m);
            Ok(())
        }
    })();
    progress(t_run, "measured");
    let _ = std::fs::remove_dir_all(&work);
    result?;
    progress(t_run, "cleaned up");
    for (phase, attempted, failed) in &gates.phases {
        println!("# phase {phase}: attempted {attempted} failed {failed}");
    }
    let (attempted, failed) = gates.totals();
    Ok((failed == 0, attempted, failed, m))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kcbbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    tune_allocator_via_reexec();
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            let out = serde_json::json!({
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics.to_json(),
            });
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kcbbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse_args(&argv(
            "--workload supervised-slice --seed 7 --seconds 6 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("supervised-slice", 7, 6, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 6 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload repro-all --seed 1 --seconds 6 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload repro-all --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload repro-all --seed 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload repro-all --seed")).is_err());
    }

    #[test]
    fn gates_count_per_phase() {
        let mut g = Gates::default();
        g.count("serve", 100, 2);
        g.check("serve", true, "x");
        g.check("warm", false, "y");
        assert_eq!(g.phases, vec![("serve", 101, 2), ("warm", 1, 1)]);
        assert_eq!(g.totals(), (102, 3));
    }
}

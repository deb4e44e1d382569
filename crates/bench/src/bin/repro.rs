//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all                       # every artifact at the default scale
//! repro table3a fig3              # specific artifacts
//! repro --list                    # show artifact ids with descriptions
//! repro all --scale 0.05 --seed 7 --out results/
//! repro all --fast                # tiny smoke-test configuration
//! repro all --fast --trace t.json --metrics --profile   # observability
//! ```
//!
//! Numbers are not expected to match the paper's absolute values (the
//! substrate is a mini-scale simulator — see DESIGN.md); the comparisons
//! that must hold are recorded in EXPERIMENTS.md.
//!
//! Telemetry: `--trace` writes a Chrome trace-event timeline (open in
//! `chrome://tracing` or Perfetto), `--metrics` writes the versioned
//! `results/run_meta.json` run manifest, `--profile` prints a per-span
//! wall-time table. All three draw on one recording pass that is strictly
//! out-of-band of the artifact pipeline — artifact bytes are identical
//! with or without them (enforced by the determinism suite).

use kcb_bench::cli;
use kcb_bench::run_meta::{self, RunMetaInputs};
use kcb_bench::runs;
use kcb_core::ckpt::CkptStore;
use kcb_core::experiment::plan::{run_scheduled, run_scheduled_with, JournalSpec, PlanReport};
use kcb_core::journal;
use kcb_core::lab::{Lab, LabConfig};
use kcb_core::report::Artifact;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
repro — regenerate the paper's tables and figures

USAGE: repro [ARTIFACT...] [OPTIONS]

ARTIFACTS:
  all            every artifact in paper order
  table2 table3a table3b table4 table5 table6
  tableA1..tableA7 fig2 fig3 figA1 figA2
  ablations      ablation-corpus ablation-dim ablation-forest ablation-adapt
  summary        machine-checked scorecard of the paper's key findings
  ext-llama2     extension: the paper's future work (open-weight oracle)

SUBCOMMANDS:
  bench-query    run the raw-speed query-path microbenchmark and write
                 results/bench_query.json (qps/core, p50/p95/p99 per
                 query kind); combines with --fast / --quant
  serve          freeze a warm snapshot and answer NDJSON queries over
                 TCP (--port, default 7878) and/or a Unix socket
                 (--socket PATH); any artifact ids given are assembled
                 first and preloaded for the `artifact` op; admin verbs
                 `stats`, `health` and `flight` answer inline, and the
                 same TCP port answers HTTP GET /metrics (Prometheus
                 text exposition) and GET /health; slow / recent requests
                 are kept in a flight-recorder ring flushed to
                 results/serve_flight.jsonl on shutdown and on overload;
                 stop with {\"op\":\"shutdown\"} or SIGINT/SIGTERM (both
                 drain the queue and flush the flight recorder first)
  serve-bench    run the serving load harness (N client connections
                 against the batching engine, then a serial replay of the
                 same workload) and write results/bench_serve.json
                 (qps, qps/core, p50/p95/p99, batch-size histogram, shed
                 count, a queue-depth/shed time series sampled during the
                 run, byte-identity checksums)
  serve-top      attach to a running `serve` daemon (--port) and render a
                 refreshing terminal table of live qps, latency
                 percentiles, queue depth, sheds and the per-verb mix;
                 --interval-ms sets the poll cadence, --samples bounds
                 the frame count (0 = until the daemon exits)
  sweep          compile a variant grid (seed x scale x scenario x
                 paradigm x oracle) into one structure-shared DAG and run
                 it: provider and cell jobs shared between variants are
                 trained once, so a K-variant sweep costs well under K
                 single runs; writes per-variant tables plus seed-repeat
                 aggregates (Fleiss kappa, Welch t-tests) under
                 results/analysis/ and the efficiency numbers (shared vs
                 unique jobs, measured speedup with --baseline) to
                 results/bench_sweep.json; every variant is saved to the
                 checkpoint store as it is assembled, so a rerun or an
                 interrupted sweep reads what is there and runs the rest
                   --grid SPEC    the grid, `key=v1,v2;key=...` over keys
                                  seeds / scales / scenarios / paradigms
                                  (sup|ft|icl|all) / oracles / model /
                                  adapt, e.g.
                                  \"seeds=7,8;scenarios=0,1;paradigms=all\"
                   --plan         dry run: print the dedup plan (every
                                  job with its cross-variant refcount)
                                  and exit without scheduling anything
                   --baseline     also run every variant sequentially in
                                  a fresh lab to measure the speedup and
                                  assert row byte-identity
  runs           query the run index (results/runs/index.jsonl):
                   runs [list]        latest manifest per run, newest first
                                      (columns: jobs the journal appended,
                                      and targets replayed, i.e. read from
                                      the checkpoint store; resumed runs
                                      are marked)
                   runs show ID       one manifest in full (unique prefixes
                                      ok) — jobs_run / jobs_replayed /
                                      resume rows are those same counts
                   runs diff ID ID    field-by-field manifest comparison,
                                      including per-artifact checksums

OPTIONS:
  --scale S      ontology scale relative to real ChEBI (default 0.03)
  --seed N       master seed (default 42)
  --threads N    worker threads for the cell scheduler; nested forest /
                 LM kernels share the same pool and yield to cell-level
                 parallelism (default: CPU count, capped at 16);
                 artifacts are byte-identical at any thread count
  --out DIR      also write one JSON file per artifact into DIR
  --md FILE      also write a combined Markdown report
  --cache-dir DIR  persistent checkpoint store for trained providers,
                 derived results and assembled artifacts (default
                 results/ckpt); a warm cache only changes wall time, never
                 artifact bytes
  --cold         ignore existing checkpoints: retrain, reassemble and
                 overwrite them
  --cache-cap BYTES  after the run, evict oldest checkpoints until the
                 store fits under BYTES
  --quant        bench-query only: add the int8-quantized query legs
  --port N       serve / serve-top: TCP port (default 7878)
  --socket PATH  serve: also listen on a Unix socket (unix only)
  --clients N    serve-bench: concurrent client connections
  --requests N   serve-bench: requests per client
  --queue-cap N  serve / serve-bench: bounded request-queue capacity;
                 submissions beyond it get a typed `overloaded` reply
  --batch-max N  serve / serve-bench: largest micro-batch one worker
                 drains at once (default 32)
  --slow-us N    serve: flight-recorder slow-request threshold, µs
                 (default 10000)
  --interval-ms N  serve-top: polling interval (default 1000)
  --samples N    serve-top: frames to render; 0 = until daemon exit
  --runs-dir DIR run-journal root (default results/runs); runs journal
                 every completed job there, and a rerun after an
                 interruption is marked resumed (what any run skips is
                 what the checkpoint store holds, to identical bytes)
  --no-journal   disable the run journal for this run (the checkpoint
                 store is still read and written)
  --trace FILE   write a Chrome trace-event timeline of the run
  --metrics      write results/run_meta.json (manifest + counters + series)
  --profile      print per-span wall-time statistics to stdout
  --fast         tiny smoke-test configuration (seconds, not minutes)
  --list         list artifact ids with descriptions and exit

FAULT INJECTION:
  KCB_FAULT=abort_after_job:N   abort the process after the Nth journaled
                 job of this run — the crash used by the resume tests;
                 rerunning the same command resumes";

/// Re-execs the binary once with glibc's allocator tuned for the autograd
/// workload. Each training step builds and tears down a multi-megabyte
/// tape; with the default tunables glibc trims the freed pages back to the
/// kernel after every step and immediately faults them in again (~20% of
/// wall time in system calls). Raising the trim/mmap thresholds keeps the
/// pages in the arena. The env vars must be set before the first malloc,
/// hence the exec rather than a runtime call.
#[cfg(unix)]
fn tune_allocator_via_reexec() {
    const MARKER: &str = "KCB_MALLOC_TUNED";
    if std::env::var_os(MARKER).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else { return };
    use std::os::unix::process::CommandExt;
    // exec only returns on failure; in that case run untuned.
    let _ = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(MARKER, "1")
        .env("MALLOC_TRIM_THRESHOLD_", "1073741824")
        .env("MALLOC_MMAP_THRESHOLD_", "268435456")
        .exec();
}

#[cfg(not(unix))]
fn tune_allocator_via_reexec() {}

/// Current unix time in milliseconds (run ids and manifest timestamps).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Answers a `repro runs` query against the index under `root`.
fn runs_query(cmd: &cli::RunsCmd, root: &std::path::Path) -> ExitCode {
    let folded = journal::index_fold(journal::index_load(root));
    let rendered = match cmd {
        cli::RunsCmd::List => Ok(runs::render_list(&folded)),
        cli::RunsCmd::Show(id) => runs::resolve(&folded, id).map(runs::render_show),
        cli::RunsCmd::Diff(a, b) => runs::resolve(&folded, a).and_then(|ma| {
            runs::resolve(&folded, b).map(|mb| {
                // Manifest fields first, then the journal-level answer to
                // "which inputs changed" (per job, per input entry).
                let mut out = runs::render_diff(ma, mb);
                out.push_str(&runs::input_diff_for(root, ma, mb));
                out
            })
        }),
    };
    match rendered {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What every run mode shares: the parsed flags, the run's identity and
/// the checkpoint store.
struct RunCtx<'a> {
    args: &'a cli::Args,
    seed: u64,
    scale: f64,
    threads: usize,
    /// FNV-64 of the full lab config, for the `run_meta.json` manifest.
    config_digest: String,
    store: Arc<CkptStore>,
    /// Run-journal root (`--runs-dir`, default `results/runs`).
    runs_root: PathBuf,
}

impl RunCtx<'_> {
    /// Applies `--cache-cap` to the checkpoint store after checkpoints have
    /// been saved, reporting what was evicted in one line.
    fn gc(&self) {
        if let Some(cap) = self.args.cache_cap {
            eprintln!("# {}", self.store.gc(cap));
        }
    }

    /// Writes `results/run_meta.json` and returns its text, or `None`
    /// after reporting the write error.
    fn write_run_meta(
        &self,
        mode: &str,
        total_seconds: f64,
        report: &PlanReport,
        telemetry: &kcb_obs::Telemetry,
        serve: Option<Value>,
        sweep: Option<Value>,
    ) -> Option<String> {
        let meta = run_meta::run_meta_json(&RunMetaInputs {
            seed: self.seed,
            scale: self.scale,
            threads: self.threads,
            fast: self.args.fast,
            mode,
            total_seconds,
            config_digest: self.config_digest.clone(),
            git_rev: run_meta::git_rev(),
            report,
            telemetry,
            serve,
            sweep,
        });
        let path = Path::new("results").join("run_meta.json");
        let text = serde_json::to_string_pretty(&meta).expect("serializable");
        match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &text)) {
            Ok(()) => {
                eprintln!("# wrote {}", path.display());
                Some(text)
            }
            Err(e) => {
                eprintln!("error writing {}: {e}", path.display());
                None
            }
        }
    }
}

/// The journaled-run driver shared by `repro <ids>` and `repro sweep`. It
/// owns the `KCB_FAULT` plan, the start and terminal run-index manifests,
/// the `# scheduler:` / `# journal:` lines and the trace, run_meta and
/// profile exporters, so the two paths differ only in what they execute
/// and print in between.
struct JournaledRun<'a> {
    ctx: &'a RunCtx<'a>,
    /// `run_meta` mode: `"artifacts"` or `"sweep"`.
    mode: &'static str,
    manifest: journal::RunManifest,
    /// The journal's run directory (`None` under `--no-journal`).
    dir: Option<PathBuf>,
    fault: Option<journal::FaultPlan>,
    total: Instant,
}

impl<'a> JournaledRun<'a> {
    /// Arms `KCB_FAULT` and, unless `--no-journal`, appends the `running`
    /// manifest for a run journaled under `runs/<digest>/` that requests
    /// `ids`. A malformed `KCB_FAULT` is an error, reported here.
    fn start(
        ctx: &'a RunCtx<'a>,
        mode: &'static str,
        digest: String,
        ids: Vec<String>,
    ) -> Result<Self, ExitCode> {
        let total = Instant::now();
        let fault = journal::FaultPlan::from_env().map_err(|e| {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        })?;
        let dir = (!ctx.args.no_journal).then(|| journal::run_dir(&ctx.runs_root, &digest));
        let started_ms = unix_ms();
        let manifest = journal::RunManifest {
            run_id: format!("{digest}-{started_ms}"),
            config_digest: digest,
            seed: ctx.seed,
            scale: ctx.scale,
            threads: ctx.threads as u64,
            fast: ctx.args.fast,
            ids,
            started_unix_ms: started_ms,
            updated_unix_ms: started_ms,
            outcome: "running".to_string(),
            jobs_run: 0,
            jobs_replayed: 0,
            resume: false,
            wall_s: 0.0,
            artifacts: Vec::new(),
        };
        if dir.is_some() {
            journal::index_append(&ctx.runs_root, &manifest);
        }
        Ok(Self { ctx, mode, manifest, dir, fault, total })
    }

    /// The journal attachment for the executor.
    fn spec(&self) -> Option<JournalSpec> {
        self.dir.clone().map(|dir| JournalSpec { dir, fault: self.fault })
    }

    /// Applies `--cache-cap` and reports what the scheduler and the
    /// journal did.
    fn after_run(&self, report: &PlanReport) {
        self.ctx.gc();
        eprintln!(
            "# scheduler: {} workers, {} jobs, {} steals, {:.1}s",
            report.scheduler.workers,
            report.scheduler.jobs.len(),
            report.scheduler.steals,
            report.scheduler.wall_seconds
        );
        if report.journal.enabled {
            let what = if self.mode == "sweep" { "sweep" } else { "run" };
            eprintln!(
                "# journal: {} appended, {} replayed{} ({})",
                report.journal.appended,
                report.journal.replayed,
                if report.journal.resume {
                    format!(" — resumed an interrupted {what}")
                } else {
                    String::new()
                },
                self.dir.as_ref().map(|d| d.display().to_string()).unwrap_or_default()
            );
        }
    }

    /// Drains telemetry into the trace, run_meta and profile exporters,
    /// appends the terminal manifest and reports the total.
    fn finish(
        mut self,
        report: &PlanReport,
        artifacts: &[(String, Artifact)],
        sweep: Option<Value>,
        mut failed: bool,
    ) -> ExitCode {
        let args = self.ctx.args;
        let total_secs = self.total.elapsed().as_secs_f64();
        // One drain serves all three exporters; after this the recorder is
        // empty again.
        let telemetry = kcb_obs::drain();
        kcb_obs::set_enabled(false);
        if let Some(path) = &args.trace {
            let doc = kcb_obs::trace::chrome_trace_string(&telemetry);
            match std::fs::write(path, &doc) {
                Ok(()) => eprintln!("# wrote {} ({} spans)", path.display(), telemetry.spans.len()),
                Err(e) => {
                    eprintln!("error writing trace {}: {e}", path.display());
                    failed = true;
                }
            }
        }
        if args.metrics {
            match self.ctx.write_run_meta(self.mode, total_secs, report, &telemetry, None, sweep) {
                Some(text) if self.manifest.ids.iter().any(|id| id == "summary") => {
                    println!("\n## Run metadata (results/run_meta.json)\n{text}");
                }
                Some(_) => {}
                None => failed = true,
            }
        }
        if args.profile {
            println!("\n## Span profile ({} spans)\n", telemetry.spans.len());
            print!("{}", kcb_obs::profile::render_table(&telemetry));
            if !report.checkpoints.is_empty() {
                println!(
                    "\n## Checkpoints ({} hits, {} misses)\n",
                    report.cache.ckpt_hits, report.cache.ckpt_misses
                );
                println!("{:<20} {:<18} {:>6} {:>12}", "provider", "key", "state", "bytes");
                for e in &report.checkpoints {
                    println!(
                        "{:<20} {:<18} {:>6} {:>12}",
                        e.provider,
                        e.key,
                        if e.hit { "hit" } else { "miss" },
                        e.bytes
                    );
                }
            }
        }
        // Terminal index record: folds over the start record, so `repro runs
        // list` shows this run as complete/failed — or still `running` if it
        // crashed before reaching here.
        if self.dir.is_some() {
            let m = &mut self.manifest;
            m.outcome = if failed { "failed" } else { "complete" }.to_string();
            m.updated_unix_ms = unix_ms();
            m.jobs_run = report.journal.appended;
            m.jobs_replayed = report.journal.replayed;
            m.resume = report.journal.resume;
            m.wall_s = total_secs;
            m.artifacts = artifacts
                .iter()
                .map(|(id, a)| {
                    let body = a.to_replay_json().render_json(None);
                    (id.clone(), kcb_util::fnv1a_hex(body.as_bytes()))
                })
                .collect();
            journal::index_append(&self.ctx.runs_root, m);
        }
        eprintln!("# total {total_secs:.1}s");
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// `repro sweep --grid SPEC`: compiles the variant grid into one
/// structure-shared DAG, runs it (resumably, under the journal), writes
/// the `analysis/` tables plus `results/bench_sweep.json`, and — with
/// `--baseline` — re-runs every variant sequentially to measure the
/// speedup and prove the rows byte-identical.
fn sweep_cmd(ctx: &RunCtx<'_>, base: LabConfig) -> ExitCode {
    use kcb_bench::analysis;
    use kcb_core::experiment::sweep;
    let args = ctx.args;

    // cli::parse validated the spec already; parse again for the value.
    let grid = match sweep::GridSpec::parse(args.grid.as_deref().unwrap_or_default()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: --grid: {e}");
            return ExitCode::FAILURE;
        }
    };
    let splan = sweep::plan(&base, &grid);
    if args.plan_only {
        // Dry run: show what would be deduplicated, schedule nothing.
        print!("{}", analysis::render_plan(&grid, &splan));
        return ExitCode::SUCCESS;
    }
    let gdigest = format!("sweep-{}", sweep::grid_digest(&base, &grid));
    eprintln!(
        "# sweep {} — {} variants / {} labs, {} jobs ({} shared, {} unique)",
        grid.render(),
        splan.variant_ids.len(),
        splan.labs,
        splan.total_jobs,
        splan.shared_jobs,
        splan.unique_jobs
    );

    // The sweep journals under its grid digest (not one variant's config
    // digest) so a resumed sweep finds every variant's completions.
    let run = match JournaledRun::start(ctx, "sweep", gdigest, splan.variant_ids.clone()) {
        Ok(run) => run,
        Err(code) => return code,
    };
    let spec = sweep::SweepSpec {
        workers: ctx.threads,
        journal: run.spec(),
        store: Some(Arc::clone(&ctx.store)),
    };
    let outcome = sweep::run_sweep(&base, &grid, &spec);
    run.after_run(&outcome.report);

    // The sequential baseline reruns every variant in a fresh lab — the
    // cost a user without the sweep compiler would pay — and doubles as a
    // byte-identity check on the shared-DAG rows.
    let seq = args.baseline.then(|| {
        eprintln!("# baseline: running {} variants sequentially…", splan.variant_ids.len());
        let (per_variant, wall_s) = sweep::run_sequential(&base, &grid);
        analysis::SeqBaseline { per_variant, wall_s }
    });
    let mut failed = false;
    if let Some(seq) = &seq {
        if seq.rows_match(&outcome) {
            eprintln!(
                "# baseline: rows byte-identical — sequential {:.1}s vs sweep {:.1}s ({:.2}x)",
                seq.wall_s,
                outcome.wall_s,
                if outcome.wall_s > 0.0 { seq.wall_s / outcome.wall_s } else { 0.0 }
            );
        } else {
            eprintln!("error: sweep rows differ from the sequential reference");
            failed = true;
        }
    }

    print!("{}", analysis::render_variants(&outcome));
    print!("{}", analysis::render_aggregates(&outcome.aggregates));
    print!("{}", analysis::render_significance(&outcome.tests));

    let analysis_dir = args.out.clone().unwrap_or_else(|| Path::new("results").join("analysis"));
    match analysis::write_analysis(&analysis_dir, &outcome) {
        Ok(()) => eprintln!("# wrote {}/", analysis_dir.display()),
        Err(e) => {
            eprintln!("error writing {}: {e}", analysis_dir.display());
            failed = true;
        }
    }
    let bench_doc = analysis::bench_sweep_json(&grid, &outcome, seq.as_ref());
    let bench_path = Path::new("results").join("bench_sweep.json");
    let text = serde_json::to_string_pretty(&bench_doc).expect("serializable");
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(&bench_path, &text))
    {
        eprintln!("error writing {}: {e}", bench_path.display());
        failed = true;
    } else {
        eprintln!("# wrote {}", bench_path.display());
    }

    let sweep_meta = args.metrics.then(|| analysis::sweep_meta(&grid, &outcome, seq.as_ref()));
    run.finish(&outcome.report, &outcome.artifacts, sweep_meta, failed)
}

fn main() -> ExitCode {
    tune_allocator_via_reexec();
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.list {
        let ids = cli::known_ids();
        let width = ids.iter().map(|id| id.len()).max().unwrap_or(0);
        for id in ids {
            let what = kcb_core::experiment::describe(id).unwrap_or("");
            println!("{id:width$}  {what}");
        }
        return ExitCode::SUCCESS;
    }
    let runs_root =
        args.runs_dir.clone().unwrap_or_else(|| std::path::Path::new("results").join("runs"));
    if let Some(cmd) = &args.runs {
        // Pure index queries: no lab, no training, no journal writes.
        return runs_query(cmd, &runs_root);
    }
    if args.serve_top {
        // Pure client: attach to a daemon's stats verb, no lab needed.
        kcb_util::signal::install();
        let addr = format!("127.0.0.1:{}", args.port.unwrap_or(7878));
        let interval = std::time::Duration::from_millis(args.interval_ms.unwrap_or(1000));
        let samples = args.samples.unwrap_or(0);
        eprintln!("# serve-top — polling {addr} every {}ms (Ctrl-C to stop)", interval.as_millis());
        return match kcb_bench::serve_top::run(&addr, interval, samples, &mut std::io::stdout()) {
            Ok(frames) => {
                eprintln!("# {frames} frames");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error polling {addr}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut ids: Vec<String> = args.ids.clone();
    if ids.is_empty() && !(args.bench_query || args.serve || args.serve_bench || args.sweep) {
        eprintln!("no artifacts requested\n\n{USAGE}");
        return ExitCode::FAILURE;
    }
    cli::expand_aliases(&mut ids);
    // Reject unknown ids before building the DAG (run_scheduled skips
    // silently, mirroring experiment::run returning None).
    if let Err(e) = cli::validate_ids(&ids) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let mut cfg = if args.fast { LabConfig::tiny() } else { LabConfig::default() };
    if let Some(s) = args.scale {
        cfg.scale = s;
    }
    if let Some(s) = args.seed {
        cfg.reseed(s);
    }
    if let Some(t) = args.threads {
        cfg.rf.n_threads = t;
        // The same pool size drives the LM matmul kernels; results are
        // bitwise identical at any thread count (see kcb_lm::pool).
        kcb_lm::pool::set_threads(t);
    }
    eprintln!(
        "# kcb repro — scale {} seed {}{}",
        cfg.scale,
        cfg.seed,
        if args.fast { " (fast mode)" } else { "" }
    );

    // Turn the recorder on before any instrumented work; the artifact
    // path never reads telemetry, so this cannot change output bytes.
    if args.wants_telemetry() {
        kcb_obs::reset();
        kcb_obs::set_enabled(true);
    }

    let threads = args.threads.unwrap_or_else(kcb_lm::pool::threads);
    let (scale, seed) = (cfg.scale, cfg.seed);
    // Trained providers, derived results and assembled artifacts persist
    // across runs in a content-addressed store; a stale or corrupt entry
    // falls back to recomputing, so the cache is purely a wall-clock knob.
    let cache_dir = args.cache_dir.clone().unwrap_or_else(|| Path::new("results").join("ckpt"));
    let store = if args.cold { CkptStore::cold(cache_dir) } else { CkptStore::open(cache_dir) };
    let ctx = RunCtx {
        args: &args,
        seed,
        scale,
        threads,
        config_digest: kcb_util::fnv1a_hex(format!("{cfg:?}").as_bytes()),
        store: Arc::new(store),
        runs_root,
    };
    if args.sweep {
        // The sweep compiler builds its own labs (one per seed × scale
        // group) over this shared store; the single-lab path below never
        // runs.
        return sweep_cmd(&ctx, cfg);
    }
    let lab = Lab::with_checkpoints(cfg, Arc::clone(&ctx.store));

    if args.serve {
        // Assemble any requested artifacts first so the daemon can serve
        // their JSON payloads by id. (Empty id list → empty DAG, but the
        // report still feeds run_meta below.)
        let serve_t0 = Instant::now();
        let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let (preload, report) = run_scheduled(&lab, &id_refs, threads);
        let mut snap =
            kcb_core::snapshot::Snapshot::freeze(&lab, kcb_core::snapshot::SnapshotSpec::default());
        for (id, artifact) in &preload {
            let payload = serde_json::json!({
                "id": artifact.id,
                "title": artifact.title,
                "data": artifact.json,
            });
            snap.add_artifact(id.clone(), payload);
        }
        lab.save_checkpoints();
        ctx.gc();
        // Flight-recorder dumps land next to the other result files.
        let flight_path = std::path::Path::new("results").join("serve_flight.jsonl");
        let _ = std::fs::create_dir_all("results");
        let cfg = kcb_serve::ServerConfig {
            tcp: Some(format!("127.0.0.1:{}", args.port.unwrap_or(7878))),
            socket: args.socket.clone(),
            engine: kcb_serve::EngineConfig {
                workers: threads,
                queue_cap: args.queue_cap.unwrap_or(4096),
                batch_max: args.batch_max.unwrap_or(32),
                flight: kcb_serve::FlightConfig {
                    path: Some(flight_path.clone()),
                    slow_us: args.slow_us.unwrap_or(10_000),
                    ..Default::default()
                },
            },
        };
        let server = match kcb_serve::Server::start(std::sync::Arc::new(snap), &cfg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error starting server: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(addr) = server.tcp_addr {
            eprintln!("# serving on tcp://{addr} ({} workers)", threads);
            eprintln!("# scrape GET http://{addr}/metrics (Prometheus) or /health");
        }
        if let Some(path) = &args.socket {
            eprintln!("# serving on unix:{}", path.display());
        }
        eprintln!("# admin verbs: stats / health / flight — watch live with `repro serve-top`");
        eprintln!("# flight recorder -> {} (slow >= {}us)", flight_path.display(), args.slow_us.unwrap_or(10_000));
        eprintln!("# stop with: {{\"id\":0,\"op\":\"shutdown\"}} or SIGINT/SIGTERM");
        // Graceful drain: a signal trips the latch; the poll loop turns it
        // into the same stop path a shutdown verb takes (acceptors close,
        // workers drain the queue, the flight recorder flushes).
        kcb_util::signal::install();
        while !server.stopped() && !kcb_util::signal::triggered() {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        if !server.stopped() {
            eprintln!("# signal — draining queue, flushing flight recorder");
            server.stop();
        }
        // Counters keep moving until the drain finishes inside wait(),
        // which consumes the server — clone the handles that must report
        // post-drain values.
        let uptime_s = server.metrics().uptime_s();
        let verb_counts = server.metrics().verb_counts();
        let errors_h = std::sync::Arc::clone(&server.metrics().errors);
        let e2e_h = std::sync::Arc::clone(&server.metrics().e2e_us);
        let stats = server.wait();
        let (errors, e2e) = (errors_h.get(), e2e_h.snapshot());
        eprintln!(
            "# served {} requests, shed {}, errors {errors}, p99 {}us",
            stats.served,
            stats.shed,
            e2e.percentile(99.0)
        );
        if args.metrics {
            let telemetry = kcb_obs::drain();
            kcb_obs::set_enabled(false);
            let verbs = serde_json::Value::Object(
                verb_counts
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), serde_json::json!(v)))
                    .collect(),
            );
            let e2e_json = serde_json::json!({
                "count": e2e.count(),
                "sum_us": e2e.sum,
                "max_us": e2e.max,
                "p50_us": e2e.percentile(50.0),
                "p95_us": e2e.percentile(95.0),
                "p99_us": e2e.percentile(99.0),
            });
            let summary = serde_json::json!({
                "served": stats.served,
                "shed": stats.shed,
                "errors": errors,
                "uptime_s": uptime_s,
                "verbs": verbs,
                "e2e": e2e_json,
            });
            let total_s = serve_t0.elapsed().as_secs_f64();
            if ctx.write_run_meta("serve", total_s, &report, &telemetry, Some(summary), None).is_none()
            {
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    if args.serve_bench {
        let snap =
            kcb_core::snapshot::Snapshot::freeze(&lab, kcb_core::snapshot::SnapshotSpec::default());
        lab.save_checkpoints();
        ctx.gc();
        let mut bcfg = kcb_serve::bench::BenchConfig::sized(threads, seed, args.fast);
        if let Some(c) = args.clients {
            bcfg.clients = c;
        }
        if let Some(r) = args.requests {
            bcfg.requests = r;
        }
        if let Some(q) = args.queue_cap {
            bcfg.queue_cap = q;
        }
        if let Some(b) = args.batch_max {
            bcfg.batch_max = b;
        }
        let doc = kcb_serve::bench::run(std::sync::Arc::new(snap), &bcfg);
        let path = std::path::Path::new("results").join("bench_serve.json");
        let text = serde_json::to_string_pretty(&doc).expect("serializable");
        if let Err(e) =
            std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &text))
        {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let served = &doc["served"];
        eprintln!(
            "# served: {} reqs in {:.2}s — {:.0} qps ({:.0} qps/core), p50 {:.0}us p99 {:.0}us, shed {}",
            served["requests"],
            served["wall_s"].as_f64().unwrap_or(0.0),
            served["qps"].as_f64().unwrap_or(0.0),
            served["qps_per_core"].as_f64().unwrap_or(0.0),
            served["p50_us"].as_f64().unwrap_or(0.0),
            served["p99_us"].as_f64().unwrap_or(0.0),
            served["shed"],
        );
        eprintln!(
            "# serial: {:.0} qps — speedup {:.1}x, byte_identical {}",
            doc["serial"]["qps"].as_f64().unwrap_or(0.0),
            doc["speedup_vs_serial"].as_f64().unwrap_or(0.0),
            doc["byte_identical"],
        );
        eprintln!("# wrote {}", path.display());
        // A checksum mismatch between the batched and serial paths is a
        // determinism breach, not a performance number.
        if doc["byte_identical"] != serde_json::json!(true) {
            eprintln!("error: served replies differ from the serial reference");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    if args.bench_query {
        let doc = kcb_bench::bench_query::run(&lab, args.quant, threads, args.fast);
        if args.quant {
            // Prove metric parity of the int8 legs rather than assume it.
            let calib = kcb_core::experiment::quant::calibrate(&lab);
            let path = std::path::Path::new("results").join("quant_calibration.json");
            let text = serde_json::to_string_pretty(&calib).expect("serializable");
            if let Err(e) = std::fs::create_dir_all("results")
                .and_then(|()| std::fs::write(&path, &text))
            {
                eprintln!("error writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "# calibration: {} (wrote {})",
                if calib["pass"] == serde_json::json!(true) { "pass" } else { "FAIL" },
                path.display()
            );
        }
        lab.save_checkpoints();
        ctx.gc();
        let path = std::path::Path::new("results").join("bench_query.json");
        let text = serde_json::to_string_pretty(&doc).expect("serializable");
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, &text))
        {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if let Some(kinds) = doc["kinds"].as_object() {
            for (kind, row) in kinds {
                eprintln!(
                    "# {kind}: {} queries, {:.0} qps/core, p50 {:.1}us p99 {:.1}us",
                    row["count"],
                    row["qps_per_core"].as_f64().unwrap_or(0.0),
                    row["p50_s"].as_f64().unwrap_or(0.0) * 1e6,
                    row["p99_s"].as_f64().unwrap_or(0.0) * 1e6,
                );
            }
        }
        eprintln!("# wrote {}", path.display());
        return ExitCode::SUCCESS;
    }
    // Run journal: every completed job is appended (fsynced) under
    // results/runs/<config-digest>/; each assembly has saved its artifact
    // to the store by then, so a killed run's next invocation reads what
    // it finished and assembles the rest, to byte-identical artifacts.
    let run = match JournaledRun::start(&ctx, "artifacts", lab.config_digest(), ids.clone()) {
        Ok(run) => run,
        Err(code) => return code,
    };
    // Decompose the requested artifacts into the dependency-aware cell
    // DAG and run it; artifacts come back in request (= canonical) order
    // and are byte-identical at any worker count.
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let (artifacts, report) = run_scheduled_with(&lab, &id_refs, threads, run.spec().as_ref());
    run.after_run(&report);
    eprintln!(
        "# checkpoints: {} hits, {} misses ({})",
        report.cache.ckpt_hits,
        report.cache.ckpt_misses,
        ctx.store.dir().display()
    );
    for j in &report.scheduler.jobs {
        if let Some(id) = j.label.strip_prefix("artifact:") {
            eprintln!("# {id} assembled in {:.1}s", j.seconds);
        }
    }
    let mut markdown = String::from("# kcb reproduction report\n\n");
    let mut failed = false;
    for (id, artifact) in &artifacts {
        println!("{}", artifact.render());
        markdown.push_str(&artifact.render_markdown());
        if let Some(dir) = &args.out {
            match artifact.write_json(dir) {
                Ok(path) => eprintln!("# wrote {}", path.display()),
                Err(e) => {
                    eprintln!("error writing {id}: {e}");
                    failed = true;
                }
            }
        }
    }
    if let Some(path) = &args.md {
        match std::fs::write(path, &markdown) {
            Ok(()) => eprintln!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("error writing markdown report: {e}");
                failed = true;
            }
        }
    }
    run.finish(&report, &artifacts, None, failed)
}

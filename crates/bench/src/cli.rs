//! Argument parsing and validation for the `repro` binary.
//!
//! Lives in the library (rather than `bin/repro.rs`) so the parser and
//! every rejection path are unit-testable: `repro` itself only turns a
//! returned `Err` into an exit code. Errors are one-liners that name the
//! offending value — the binary appends the usage text.

use std::path::PathBuf;

/// Parsed `repro` command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Requested artifact ids, in order (aliases not yet expanded).
    pub ids: Vec<String>,
    /// `--scale`: ontology scale override.
    pub scale: Option<f64>,
    /// `--seed`: master-seed override.
    pub seed: Option<u64>,
    /// `--threads`: scheduler worker count override.
    pub threads: Option<usize>,
    /// `--out`: per-artifact JSON output directory.
    pub out: Option<PathBuf>,
    /// `--md`: combined Markdown report path.
    pub md: Option<PathBuf>,
    /// `--trace`: Chrome trace-event timeline output path.
    pub trace: Option<PathBuf>,
    /// `--metrics`: write `results/run_meta.json`.
    pub metrics: bool,
    /// `--profile`: print the span profile table to stdout.
    pub profile: bool,
    /// `--fast`: tiny smoke-test configuration.
    pub fast: bool,
    /// `--cache-dir`: checkpoint-store directory (default `results/ckpt`).
    pub cache_dir: Option<PathBuf>,
    /// `--cold`: ignore existing checkpoints, retrain and overwrite them.
    pub cold: bool,
    /// `bench-query`: run the query-path microbenchmark instead of
    /// assembling artifacts.
    pub bench_query: bool,
    /// `serve`: freeze a snapshot and run the NDJSON daemon.
    pub serve: bool,
    /// `serve-bench`: run the serving-engine load harness and write
    /// `results/bench_serve.json`.
    pub serve_bench: bool,
    /// `serve-top`: poll a running daemon's `stats` verb and render a
    /// refreshing terminal table.
    pub serve_top: bool,
    /// `--interval-ms`: polling interval for `serve-top` (default 1000).
    pub interval_ms: Option<u64>,
    /// `--samples`: number of `serve-top` frames (0 = until shutdown).
    pub samples: Option<u64>,
    /// `--slow-us`: flight-recorder slow-request threshold for `serve`.
    pub slow_us: Option<u64>,
    /// `--port`: TCP port for `serve` / `serve-top` (default 7878).
    pub port: Option<u16>,
    /// `--socket`: Unix-socket path for `serve` (unix only).
    pub socket: Option<PathBuf>,
    /// `--clients`: concurrent client connections for `serve-bench`.
    pub clients: Option<usize>,
    /// `--requests`: requests per client for `serve-bench`.
    pub requests: Option<usize>,
    /// `--queue-cap`: bounded request-queue capacity (admission control).
    pub queue_cap: Option<usize>,
    /// `--batch-max`: largest micro-batch a worker drains at once.
    pub batch_max: Option<usize>,
    /// `--quant`: add the int8-quantized legs to `bench-query`.
    pub quant: bool,
    /// `--cache-cap BYTES`: evict oldest checkpoints until the store fits.
    pub cache_cap: Option<u64>,
    /// `sweep`: compile a variant grid into one structure-shared DAG.
    pub sweep: bool,
    /// `--grid`: sweep grid spec (`seeds=7,8;scenarios=0,2;...`), parsed
    /// and validated here.
    pub grid: Option<String>,
    /// `--plan`: print the sweep dedup plan and exit without running.
    pub plan_only: bool,
    /// `--baseline`: also run each variant sequentially in a fresh lab
    /// and record the measured speedup in `results/bench_sweep.json`.
    pub baseline: bool,
    /// `runs [list|show|diff]`: query the run index instead of running.
    pub runs: Option<RunsCmd>,
    /// `--runs-dir`: run-journal root (default `results/runs`).
    pub runs_dir: Option<PathBuf>,
    /// `--no-journal`: disable run journaling for this artifact run.
    pub no_journal: bool,
    /// `--list`: list artifact ids and exit.
    pub list: bool,
    /// `--help` / `-h`.
    pub help: bool,
}

/// The `repro runs` query surface over `results/runs/index.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub enum RunsCmd {
    /// Latest manifest per run, newest first.
    List,
    /// Full manifest of one run id (prefixes accepted when unambiguous).
    Show(String),
    /// Field-by-field manifest diff of two run ids.
    Diff(String, String),
}

impl Args {
    /// Whether any flag requests telemetry recording.
    pub fn wants_telemetry(&self) -> bool {
        self.trace.is_some() || self.metrics || self.profile
    }
}

/// Parses `repro` arguments (without the program name). Flag values are
/// validated here so every bad input fails before any work starts.
pub fn parse<I>(args: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut out = Args::default();
    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => out.list = true,
            "--fast" => out.fast = true,
            "--cold" => out.cold = true,
            "--quant" => out.quant = true,
            "--no-journal" => out.no_journal = true,
            "bench-query" => out.bench_query = true,
            "sweep" => out.sweep = true,
            "--plan" => out.plan_only = true,
            "--baseline" => out.baseline = true,
            "--grid" => {
                let v = it.next().ok_or("--grid needs a spec (key=v1,v2;key=...)")?;
                // Parse eagerly so a bad grid fails before any work starts.
                kcb_core::experiment::sweep::GridSpec::parse(&v)
                    .map_err(|e| format!("--grid: {e}"))?;
                out.grid = Some(v);
            }
            "serve" => out.serve = true,
            "serve-bench" => out.serve_bench = true,
            "serve-top" => out.serve_top = true,
            "runs" => {
                // `runs` with no (or a flag) next token defaults to `list`.
                let sub = match it.peek() {
                    Some(s) if !s.starts_with('-') => it.next().expect("peeked"),
                    _ => "list".to_string(),
                };
                out.runs = Some(match sub.as_str() {
                    "list" => RunsCmd::List,
                    "show" => RunsCmd::Show(it.next().ok_or("runs show needs a run id")?),
                    "diff" => RunsCmd::Diff(
                        it.next().ok_or("runs diff needs two run ids")?,
                        it.next().ok_or("runs diff needs two run ids")?,
                    ),
                    other => {
                        return Err(format!("unknown runs subcommand '{other}' (list|show|diff)"))
                    }
                });
            }
            "--runs-dir" => {
                let v = it.next().ok_or("--runs-dir needs a directory")?;
                if v.is_empty() {
                    return Err("--runs-dir needs a non-empty directory".to_string());
                }
                let p = PathBuf::from(&v);
                if p.is_file() {
                    return Err(format!("--runs-dir {v} is a file, not a directory"));
                }
                out.runs_dir = Some(p);
            }
            "--port" => {
                let v = it.next().ok_or("--port needs a value")?;
                out.port = Some(v.parse().map_err(|_| format!("bad port {v}"))?);
            }
            "--socket" => {
                let v = it.next().ok_or("--socket needs a path")?;
                if v.is_empty() {
                    return Err("--socket needs a non-empty path".to_string());
                }
                out.socket = Some(v.into());
            }
            "--clients" => {
                let v = it.next().ok_or("--clients needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad client count {v}"))?;
                if n == 0 {
                    return Err("--clients must be at least 1, got 0".to_string());
                }
                out.clients = Some(n);
            }
            "--requests" => {
                let v = it.next().ok_or("--requests needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad request count {v}"))?;
                if n == 0 {
                    return Err("--requests must be at least 1, got 0".to_string());
                }
                out.requests = Some(n);
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad queue cap {v}"))?;
                if n == 0 {
                    return Err("--queue-cap must be at least 1, got 0".to_string());
                }
                out.queue_cap = Some(n);
            }
            "--batch-max" => {
                let v = it.next().ok_or("--batch-max needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad batch max {v}"))?;
                if n == 0 {
                    return Err("--batch-max must be at least 1, got 0".to_string());
                }
                out.batch_max = Some(n);
            }
            "--interval-ms" => {
                let v = it.next().ok_or("--interval-ms needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad interval {v}"))?;
                if n == 0 {
                    return Err("--interval-ms must be at least 1, got 0".to_string());
                }
                out.interval_ms = Some(n);
            }
            "--samples" => {
                let v = it.next().ok_or("--samples needs a value")?;
                out.samples = Some(v.parse().map_err(|_| format!("bad sample count {v}"))?);
            }
            "--slow-us" => {
                let v = it.next().ok_or("--slow-us needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad threshold {v}"))?;
                if n == 0 {
                    return Err("--slow-us must be at least 1, got 0".to_string());
                }
                out.slow_us = Some(n);
            }
            "--metrics" => out.metrics = true,
            "--profile" => out.profile = true,
            "--help" | "-h" => out.help = true,
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                let s: f64 = v.parse().map_err(|_| format!("bad scale {v}"))?;
                if !(s > 0.0 && s <= 4.0) {
                    return Err(format!("--scale must be in (0, 4], got {v}"));
                }
                out.scale = Some(s);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                out.seed = Some(v.parse().map_err(|_| format!("bad seed {v}"))?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let t: usize = v.parse().map_err(|_| format!("bad thread count {v}"))?;
                if t == 0 {
                    return Err("--threads must be at least 1, got 0".to_string());
                }
                out.threads = Some(t);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                out.out = Some(v.into());
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a directory")?;
                if v.is_empty() {
                    return Err("--cache-dir needs a non-empty directory".to_string());
                }
                let p = PathBuf::from(&v);
                if p.is_file() {
                    return Err(format!("--cache-dir {v} is a file, not a directory"));
                }
                out.cache_dir = Some(p);
            }
            "--cache-cap" => {
                let v = it.next().ok_or("--cache-cap needs a byte count")?;
                let cap: u64 = v.parse().map_err(|_| format!("bad cache cap {v}"))?;
                if cap == 0 {
                    return Err("--cache-cap must be at least 1 byte, got 0".to_string());
                }
                out.cache_cap = Some(cap);
            }
            "--md" => {
                let v = it.next().ok_or("--md needs a file path")?;
                out.md = Some(v.into());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file path")?;
                out.trace = Some(v.into());
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => out.ids.push(other.to_string()),
        }
    }
    if out.quant && !out.bench_query {
        // Quantization is an inference-only query-path option; keeping it
        // out of artifact runs guarantees f32 artifact bytes never depend
        // on the flag.
        return Err("--quant only applies to the bench-query subcommand".to_string());
    }
    if out.bench_query && !out.ids.is_empty() {
        return Err(format!("bench-query runs alone, got artifact '{}'", out.ids[0]));
    }
    let subcommands = usize::from(out.bench_query)
        + usize::from(out.sweep)
        + usize::from(out.serve)
        + usize::from(out.serve_bench)
        + usize::from(out.serve_top)
        + usize::from(out.runs.is_some());
    if subcommands > 1 {
        return Err(
            "bench-query, sweep, serve, serve-bench, serve-top and runs are mutually exclusive"
                .to_string(),
        );
    }
    if out.sweep && out.grid.is_none() {
        return Err("sweep needs --grid (e.g. --grid \"seeds=7,8;scenarios=0,2\")".to_string());
    }
    if out.sweep && !out.ids.is_empty() {
        return Err(format!("sweep runs alone, got artifact '{}'", out.ids[0]));
    }
    if (out.grid.is_some() || out.plan_only || out.baseline) && !out.sweep {
        return Err("--grid / --plan / --baseline only apply to the sweep subcommand".to_string());
    }
    if out.plan_only && out.baseline {
        return Err("--plan is a dry run; it cannot be combined with --baseline".to_string());
    }
    if out.runs.is_some() && !out.ids.is_empty() {
        return Err(format!("runs queries run alone, got artifact '{}'", out.ids[0]));
    }
    if out.no_journal
        && (out.runs.is_some() || out.bench_query || out.serve || out.serve_bench || out.serve_top)
    {
        return Err("--no-journal only applies to artifact runs".to_string());
    }
    if out.port.is_some() && !(out.serve || out.serve_top) {
        return Err("--port only applies to the serve / serve-top subcommands".to_string());
    }
    if out.socket.is_some() && !out.serve {
        return Err("--socket only applies to the serve subcommand".to_string());
    }
    if (out.interval_ms.is_some() || out.samples.is_some()) && !out.serve_top {
        return Err("--interval-ms / --samples only apply to the serve-top subcommand".to_string());
    }
    if out.slow_us.is_some() && !out.serve {
        return Err("--slow-us only applies to the serve subcommand".to_string());
    }
    if out.serve_top && !out.ids.is_empty() {
        return Err(format!("serve-top runs alone, got artifact '{}'", out.ids[0]));
    }
    if (out.clients.is_some() || out.requests.is_some()) && !out.serve_bench {
        return Err("--clients / --requests only apply to the serve-bench subcommand".to_string());
    }
    if (out.queue_cap.is_some() || out.batch_max.is_some()) && !(out.serve || out.serve_bench) {
        return Err("--queue-cap / --batch-max only apply to serve / serve-bench".to_string());
    }
    // `serve` accepts artifact ids (they are assembled and preloaded into
    // the snapshot); `serve-bench` runs alone like `bench-query`.
    if out.serve_bench && !out.ids.is_empty() {
        return Err(format!("serve-bench runs alone, got artifact '{}'", out.ids[0]));
    }
    Ok(out)
}

/// Every runnable artifact id, lowercase, in listing order.
pub fn known_ids() -> Vec<&'static str> {
    kcb_core::experiment::ALL_IDS
        .iter()
        .chain(kcb_core::experiment::ABLATION_IDS)
        .chain(kcb_core::experiment::EXTENSION_IDS)
        .chain(std::iter::once(&kcb_core::experiment::SUMMARY_ID))
        .copied()
        .collect()
}

/// Expands the `all` / `ablations` aliases in place (preserving request
/// order, deduplicating the `all` block like the historical behaviour).
pub fn expand_aliases(ids: &mut Vec<String>) {
    if let Some(pos) = ids.iter().position(|i| i == "all") {
        ids.splice(pos..=pos, kcb_core::experiment::ALL_IDS.iter().map(|s| s.to_string()));
        ids.dedup();
    }
    if let Some(pos) = ids.iter().position(|i| i == "ablations") {
        ids.remove(pos);
        ids.extend(kcb_core::experiment::ABLATION_IDS.iter().map(|s| s.to_string()));
    }
}

/// Rejects ids outside the artifact registry, naming the first offender.
pub fn validate_ids(ids: &[String]) -> Result<(), String> {
    let known: Vec<String> = known_ids().iter().map(|s| s.to_ascii_lowercase()).collect();
    for id in ids {
        if !known.contains(&id.to_ascii_lowercase()) {
            return Err(format!("unknown artifact '{id}' (see --list)"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = p(&[
            "all", "--fast", "--threads", "4", "--scale", "0.05", "--seed", "7", "--trace",
            "t.json", "--metrics", "--profile", "--out", "results",
        ])
        .unwrap();
        assert_eq!(a.ids, vec!["all"]);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.scale, Some(0.05));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(a.metrics && a.profile && a.fast);
        assert!(a.wants_telemetry());
        assert!(!p(&["all"]).unwrap().wants_telemetry());
    }

    #[test]
    fn rejects_zero_threads_naming_the_value() {
        let e = p(&["all", "--threads", "0"]).unwrap_err();
        assert!(e.contains("--threads") && e.contains('0'), "{e}");
    }

    #[test]
    fn rejects_bad_scales_naming_the_value() {
        for bad in ["0", "-1", "nan", "inf", "4.5"] {
            let e = p(&["all", "--scale", bad]).unwrap_err();
            assert!(e.contains("scale"), "{bad}: {e}");
        }
        assert_eq!(p(&["--scale", "0.5"]).unwrap().scale, Some(0.5));
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(p(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(p(&["--trace"]).unwrap_err().contains("--trace"));
        assert!(p(&["--threads"]).unwrap_err().contains("--threads"));
        assert!(p(&["--cache-dir"]).unwrap_err().contains("--cache-dir"));
    }

    #[test]
    fn parses_cache_flags() {
        let a = p(&["table4", "--cache-dir", "warm", "--cold"]).unwrap();
        assert_eq!(a.cache_dir.as_deref(), Some(std::path::Path::new("warm")));
        assert!(a.cold);
        let a = p(&["table4"]).unwrap();
        assert_eq!(a.cache_dir, None);
        assert!(!a.cold);
    }

    #[test]
    fn rejects_bad_cache_dirs_naming_the_value() {
        let e = p(&["--cache-dir", ""]).unwrap_err();
        assert!(e.contains("--cache-dir"), "{e}");
        // A path that names an existing *file* is rejected at parse time.
        let file = std::env::temp_dir().join(format!("kcb-cli-test-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let e = p(&["--cache-dir", file.to_str().unwrap()]).unwrap_err();
        assert!(e.contains("is a file"), "{e}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn parses_query_path_flags() {
        let a = p(&["bench-query", "--quant", "--fast", "--cache-cap", "1024"]).unwrap();
        assert!(a.bench_query && a.quant && a.fast);
        assert_eq!(a.cache_cap, Some(1024));
        assert!(a.ids.is_empty());
        let a = p(&["table4"]).unwrap();
        assert!(!a.bench_query && !a.quant && a.cache_cap.is_none());
    }

    #[test]
    fn quant_requires_bench_query() {
        let e = p(&["table4", "--quant"]).unwrap_err();
        assert!(e.contains("--quant") && e.contains("bench-query"), "{e}");
        let e = p(&["--quant"]).unwrap_err();
        assert!(e.contains("bench-query"), "{e}");
    }

    #[test]
    fn bench_query_rejects_artifact_ids_and_bad_caps() {
        let e = p(&["bench-query", "table4"]).unwrap_err();
        assert!(e.contains("table4"), "{e}");
        let e = p(&["bench-query", "--cache-cap", "0"]).unwrap_err();
        assert!(e.contains("--cache-cap"), "{e}");
        let e = p(&["bench-query", "--cache-cap", "lots"]).unwrap_err();
        assert!(e.contains("lots"), "{e}");
        assert!(p(&["bench-query", "--cache-cap"]).unwrap_err().contains("--cache-cap"));
    }

    #[test]
    fn parses_serve_flags() {
        let a = p(&["serve", "table2", "--port", "9000", "--socket", "/tmp/kcb.sock",
            "--queue-cap", "128", "--batch-max", "16"])
            .unwrap();
        assert!(a.serve && !a.serve_bench && !a.bench_query);
        assert_eq!(a.ids, vec!["table2"]);
        assert_eq!(a.port, Some(9000));
        assert_eq!(a.socket.as_deref(), Some(std::path::Path::new("/tmp/kcb.sock")));
        assert_eq!(a.queue_cap, Some(128));
        assert_eq!(a.batch_max, Some(16));
        let a = p(&["serve-bench", "--clients", "4", "--requests", "100", "--fast"]).unwrap();
        assert!(a.serve_bench && a.fast);
        assert_eq!(a.clients, Some(4));
        assert_eq!(a.requests, Some(100));
    }

    #[test]
    fn serve_flags_are_validated() {
        let e = p(&["serve", "serve-bench"]).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = p(&["bench-query", "serve"]).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = p(&["--port", "9000"]).unwrap_err();
        assert!(e.contains("serve"), "{e}");
        let e = p(&["serve", "--clients", "4"]).unwrap_err();
        assert!(e.contains("serve-bench"), "{e}");
        let e = p(&["table2", "--queue-cap", "4"]).unwrap_err();
        assert!(e.contains("serve"), "{e}");
        let e = p(&["serve-bench", "table2"]).unwrap_err();
        assert!(e.contains("table2"), "{e}");
        for bad in [["serve", "--port", "notaport"], ["serve-bench", "--clients", "0"],
            ["serve-bench", "--requests", "0"], ["serve", "--queue-cap", "0"],
            ["serve", "--batch-max", "0"]]
        {
            assert!(p(&bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_serve_top_flags() {
        let a = p(&["serve-top", "--port", "9000", "--interval-ms", "250", "--samples", "10"])
            .unwrap();
        assert!(a.serve_top && !a.serve && !a.serve_bench);
        assert_eq!(a.port, Some(9000));
        assert_eq!(a.interval_ms, Some(250));
        assert_eq!(a.samples, Some(10));
        // --samples 0 means "poll until the daemon goes away".
        assert_eq!(p(&["serve-top", "--samples", "0"]).unwrap().samples, Some(0));
        let a = p(&["serve", "--slow-us", "2500"]).unwrap();
        assert_eq!(a.slow_us, Some(2500));
    }

    #[test]
    fn serve_top_flags_are_validated() {
        let e = p(&["serve-top", "serve"]).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = p(&["serve-top", "table2"]).unwrap_err();
        assert!(e.contains("table2"), "{e}");
        let e = p(&["--interval-ms", "250"]).unwrap_err();
        assert!(e.contains("serve-top"), "{e}");
        let e = p(&["serve", "--samples", "3"]).unwrap_err();
        assert!(e.contains("serve-top"), "{e}");
        let e = p(&["serve-top", "--slow-us", "100"]).unwrap_err();
        assert!(e.contains("serve"), "{e}");
        let e = p(&["serve-top", "--socket", "/tmp/x.sock"]).unwrap_err();
        assert!(e.contains("--socket"), "{e}");
        for bad in [["serve-top", "--interval-ms", "0"], ["serve", "--slow-us", "0"],
            ["serve-top", "--samples", "many"]]
        {
            assert!(p(&bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_sweep_flags() {
        let a = p(&["sweep", "--grid", "seeds=7,8;scenarios=0,2;paradigms=sup,icl", "--fast"])
            .unwrap();
        assert!(a.sweep && a.fast && !a.plan_only && !a.baseline);
        assert_eq!(a.grid.as_deref(), Some("seeds=7,8;scenarios=0,2;paradigms=sup,icl"));
        let a = p(&["sweep", "--grid", "scenarios=0", "--plan"]).unwrap();
        assert!(a.plan_only);
        let a = p(&["sweep", "--grid", "scenarios=0", "--baseline", "--no-journal"]).unwrap();
        assert!(a.baseline && a.no_journal, "sweep composes with --no-journal");
    }

    #[test]
    fn sweep_flags_are_validated() {
        let e = p(&["sweep"]).unwrap_err();
        assert!(e.contains("--grid"), "{e}");
        let e = p(&["sweep", "--grid", "scenarios=9"]).unwrap_err();
        assert!(e.contains("scenario"), "bad grids fail at parse time: {e}");
        let e = p(&["sweep", "--grid", "scales=5"]).unwrap_err();
        assert!(e.contains("scale"), "{e}");
        let e = p(&["sweep", "--grid", "scenarios=0", "table2"]).unwrap_err();
        assert!(e.contains("table2"), "{e}");
        let e = p(&["sweep", "bench-query", "--grid", "scenarios=0"]).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = p(&["--grid", "scenarios=0"]).unwrap_err();
        assert!(e.contains("sweep"), "{e}");
        let e = p(&["table2", "--plan"]).unwrap_err();
        assert!(e.contains("sweep"), "{e}");
        let e = p(&["--baseline"]).unwrap_err();
        assert!(e.contains("sweep"), "{e}");
        let e = p(&["sweep", "--grid", "scenarios=0", "--plan", "--baseline"]).unwrap_err();
        assert!(e.contains("dry run"), "{e}");
    }

    #[test]
    fn parses_runs_subcommands() {
        assert_eq!(p(&["runs"]).unwrap().runs, Some(RunsCmd::List));
        assert_eq!(p(&["runs", "list"]).unwrap().runs, Some(RunsCmd::List));
        let a = p(&["runs", "--runs-dir", "r"]).unwrap();
        assert_eq!(a.runs, Some(RunsCmd::List));
        assert_eq!(a.runs_dir.as_deref(), Some(std::path::Path::new("r")));
        assert_eq!(
            p(&["runs", "show", "deadbeef-1"]).unwrap().runs,
            Some(RunsCmd::Show("deadbeef-1".to_string()))
        );
        assert_eq!(
            p(&["runs", "diff", "a-1", "b-2"]).unwrap().runs,
            Some(RunsCmd::Diff("a-1".to_string(), "b-2".to_string()))
        );
    }

    #[test]
    fn runs_subcommand_is_validated() {
        let e = p(&["runs", "frobnicate"]).unwrap_err();
        assert!(e.contains("frobnicate"), "{e}");
        assert!(p(&["runs", "show"]).unwrap_err().contains("run id"));
        assert!(p(&["runs", "diff", "only-one"]).unwrap_err().contains("two run ids"));
        let e = p(&["runs", "list", "table2"]).unwrap_err();
        assert!(e.contains("table2"), "{e}");
        let e = p(&["runs", "bench-query"]).unwrap_err();
        assert!(e.contains("bench-query"), "{e}");
        assert!(p(&["--runs-dir", ""]).unwrap_err().contains("--runs-dir"));
    }

    #[test]
    fn journal_flags_are_validated() {
        let a = p(&["all", "--no-journal", "--runs-dir", "elsewhere"]).unwrap();
        assert!(a.no_journal);
        assert_eq!(a.runs_dir.as_deref(), Some(std::path::Path::new("elsewhere")));
        assert!(!p(&["all"]).unwrap().no_journal);
        let e = p(&["bench-query", "--no-journal"]).unwrap_err();
        assert!(e.contains("--no-journal"), "{e}");
        let e = p(&["runs", "--no-journal"]).unwrap_err();
        assert!(e.contains("--no-journal"), "{e}");
    }

    #[test]
    fn id_validation_names_the_offender() {
        assert!(validate_ids(&["table2".into(), "Fig3".into()]).is_ok());
        let e = validate_ids(&["table2".into(), "tabel3".into()]).unwrap_err();
        assert!(e.contains("tabel3"), "{e}");
    }

    #[test]
    fn aliases_expand_in_request_order() {
        let mut ids = vec!["summary".to_string(), "all".to_string(), "ablations".to_string()];
        expand_aliases(&mut ids);
        assert_eq!(ids[0], "summary");
        assert_eq!(ids[1], "table2");
        assert!(ids.contains(&"ablation-dim".to_string()));
        assert!(validate_ids(&ids).is_ok());
    }

    #[test]
    fn every_known_id_has_a_description() {
        for id in known_ids() {
            assert!(
                kcb_core::experiment::describe(id).is_some(),
                "{id} is listed but has no description"
            );
        }
        assert!(kcb_core::experiment::describe("nope").is_none());
    }
}

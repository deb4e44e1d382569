//! The user's lifecycle, driven through the `repro` CLI from outside: a
//! cold reproduction into a fresh cache and journal, a daemon serving that
//! cache, warm reruns, and a cold variant sweep.

use crate::procfs;
use crate::workload::Workload;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the peak-RSS poller reads a running child's `VmHWM`.
const HWM_POLL: Duration = Duration::from_millis(5);

/// The `repro` binary and the flags every lifecycle step shares.
pub struct Repro {
    /// Path of the built binary.
    pub bin: PathBuf,
    /// Workload seed, passed as `--seed`.
    pub seed: u64,
}

impl Repro {
    /// A `repro` command run in `cwd` at `--fast --threads 1 --seed S`.
    pub fn command(&self, cwd: &Path, args: &[&str]) -> Command {
        let mut c = Command::new(&self.bin);
        c.current_dir(cwd)
            .args(args)
            .args(["--fast", "--threads", "1", "--seed"]);
        c.arg(self.seed.to_string());
        c
    }
}

/// One child process run to completion with its resources measured.
pub struct ChildRun {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// Exited with status 0.
    pub ok: bool,
    /// Everything it printed on stdout.
    pub stdout: Vec<u8>,
    /// Bytes it passed to write-family syscalls (`wchar`).
    pub written_b: u64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, kB, as last seen by the poller.
    pub hwm_kb: u64,
}

/// Spawns `cmd`, waits for it, and measures it from outside. Nothing else
/// in this process may write while it runs: the `wchar` delta is read
/// from this process's own counters.
pub fn run_measured(mut cmd: Command) -> std::io::Result<ChildRun> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let w0 = procfs::self_wchar()?;
    let c0 = procfs::self_children_cpu_s()?;
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let (mut out, mut err) = (child.stdout.take(), child.stderr.take());
    let exited = AtomicBool::new(false);
    let (status, wall_s, stdout, stderr, hwm_kb) = std::thread::scope(|s| {
        let o = s.spawn(|| {
            let mut v = Vec::new();
            out.as_mut().map(|p| p.read_to_end(&mut v));
            v
        });
        let e = s.spawn(|| {
            let mut v = Vec::new();
            err.as_mut().map(|p| p.read_to_end(&mut v));
            v
        });
        let h = s.spawn(|| {
            let mut hwm = 0;
            while !exited.load(Ordering::Acquire) {
                if let Some(kb) = procfs::vm_hwm_kb(pid) {
                    hwm = hwm.max(kb);
                }
                std::thread::sleep(HWM_POLL);
            }
            hwm
        });
        let status = child.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        exited.store(true, Ordering::Release);
        let join = "reader thread panicked";
        (
            status,
            wall_s,
            o.join().expect(join),
            e.join().expect(join),
            h.join().expect(join),
        )
    });
    let status = status?;
    let written_b = procfs::self_wchar()?.saturating_sub(w0);
    let cpu_s = procfs::self_children_cpu_s()? - c0;
    if !status.success() {
        eprintln!(
            "kcbbench: {:?} exited with {status}:\n{}",
            cmd.get_args().collect::<Vec<_>>(),
            String::from_utf8_lossy(&stderr)
        );
    }
    Ok(ChildRun {
        wall_s,
        ok: status.success(),
        stdout,
        written_b,
        cpu_s,
        hwm_kb,
    })
}

/// A running `repro serve` daemon. Dropping it kills the process if it is
/// still running and waits for it.
pub struct Daemon {
    child: Child,
    /// Its TCP listener.
    pub addr: SocketAddr,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts `repro serve --port 0` on `cache` and returns once the
    /// daemon has answered a ping.
    pub fn start(repro: &Repro, cwd: &Path, cache: &Path) -> std::io::Result<Daemon> {
        let cache = cache.to_str().expect("utf-8 workspace path");
        let mut cmd = repro.command(cwd, &["serve", "--port", "0", "--cache-dir", cache]);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            let rest = line.strip_prefix("# serving on tcp://")?.to_string();
            rest.split_whitespace().next()?.parse::<SocketAddr>().ok()
        });
        // Keep draining so the daemon never blocks on a full pipe.
        let stderr = Some(std::thread::spawn(move || {
            lines.map_while(Result::ok).for_each(drop)
        }));
        let Some(addr) = addr else {
            drop(Daemon {
                child,
                addr: SocketAddr::from(([127, 0, 0, 1], 0)),
                stderr,
            });
            return Err(std::io::Error::other("daemon exited before listening"));
        };
        let daemon = Daemon {
            child,
            addr,
            stderr,
        };
        let reply = request(daemon.addr, r#"{"id":0,"op":"ping"}"#)?;
        if !reply.contains(r#""ok":true"#) {
            return Err(std::io::Error::other(format!("ping: {reply}")));
        }
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends the `shutdown` verb and waits for a graceful exit; `true` when
    /// the daemon drained and exited with status 0.
    pub fn shutdown(mut self) -> bool {
        let asked = request(self.addr, r#"{"id":1,"op":"shutdown"}"#).is_ok();
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(st)) => break Some(st),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        asked && status.is_some_and(|s| s.success())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

/// One request line on a fresh connection, returning the reply line.
pub fn request(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    s.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    BufReader::new(s).read_line(&mut reply)?;
    Ok(reply)
}

/// A workspace: the cache, runs directory and working directory of one
/// lifecycle step, all under `root`.
pub struct Workspace {
    /// Working directory of the children (their `results/` lands here).
    pub root: PathBuf,
}

impl Workspace {
    /// A fresh, empty workspace at `root`.
    pub fn fresh(root: PathBuf) -> std::io::Result<Workspace> {
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Workspace { root })
    }

    /// `--cache-dir`.
    pub fn cache(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// `--runs-dir`.
    pub fn runs(&self) -> PathBuf {
        self.root.join("runs")
    }

    /// The `repro <ids>` reproduction run of `wl` in this workspace.
    pub fn reproduce(&self, repro: &Repro, wl: &Workload) -> Command {
        let (cache, runs) = (self.cache(), self.runs());
        let mut args: Vec<&str> = wl.ids.to_vec();
        args.extend([
            "--cache-dir",
            path_str(&cache),
            "--runs-dir",
            path_str(&runs),
        ]);
        repro.command(&self.root, &args)
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 workspace path")
}

/// One set-up: the cold reproduction into an empty workspace, then a
/// daemon on its cache up to its first reply.
pub struct Setup {
    /// Empty workspace to first daemon reply, seconds.
    pub setup_s: f64,
    /// The cold reproduction child.
    pub cold: ChildRun,
    /// The daemon, still serving.
    pub daemon: Daemon,
}

/// Runs one set-up of `wl` in `ws` (which must be empty).
pub fn setup(repro: &Repro, wl: &Workload, ws: &Workspace) -> std::io::Result<Setup> {
    let t0 = Instant::now();
    let cold = run_measured(ws.reproduce(repro, wl))?;
    if !cold.ok {
        return Err(std::io::Error::other("cold reproduction failed"));
    }
    let daemon = Daemon::start(repro, &ws.root, &ws.cache())?;
    Ok(Setup {
        setup_s: t0.elapsed().as_secs_f64(),
        cold,
        daemon,
    })
}

/// Journal records under a runs directory (`<runs>/<digest>/journal.jsonl`).
pub fn journal_records(runs: &Path) -> usize {
    let Ok(dirs) = std::fs::read_dir(runs) else {
        return 0;
    };
    dirs.filter_map(Result::ok)
        .filter_map(|d| std::fs::read_to_string(d.path().join("journal.jsonl")).ok())
        .map(|text| text.lines().count())
        .sum()
}

/// Bytes of the regular files under `dir`, recursively.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// Replaces `dst` with a copy of `src`.
pub fn restore_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    if dst.exists() {
        std::fs::remove_dir_all(dst)?;
    }
    copy_dir(src, dst)
}

fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for e in std::fs::read_dir(src)? {
        let e = e?;
        let to = dst.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &to)?;
        } else {
            std::fs::copy(e.path(), to)?;
        }
    }
    Ok(())
}

/// The size of the `derived` checkpoint entry in a cache directory.
pub fn derived_bytes(cache: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(cache) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("derived-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The analysis tables a sweep writes under its working directory.
const SWEEP_TABLES: [&str; 4] = [
    "aggregates.json",
    "aggregates.txt",
    "significance.json",
    "significance.txt",
];

/// Whether every analysis table exists and is non-empty.
pub fn sweep_tables_written(cwd: &Path) -> bool {
    let dir = cwd.join("results").join("analysis");
    SWEEP_TABLES
        .iter()
        .all(|t| std::fs::metadata(dir.join(t)).is_ok_and(|m| m.len() > 0))
}

/// The cold `repro sweep --grid G` of `wl` in `ws` (which must be empty).
pub fn sweep(repro: &Repro, wl: &Workload, ws: &Workspace) -> std::io::Result<ChildRun> {
    let (cache, runs, grid) = (ws.cache(), ws.runs(), wl.grid(repro.seed));
    let args = [
        "sweep",
        "--grid",
        &grid,
        "--cache-dir",
        path_str(&cache),
        "--runs-dir",
        path_str(&runs),
    ];
    run_measured(repro.command(&ws.root, &args))
}

//! Threads are a wall-clock knob, never a results knob, driven through the
//! built `repro` binary.
//!
//! `repro table2 table3a tableA6 fig3 --fast --seed 7` runs cold at
//! `--threads 1` and at `--threads 4`, each in its own workspace. The two
//! runs must print the same stdout, write the same `--out` directory and
//! leave byte-identical checkpoint stores. A warm rerun at `--threads 4` in
//! the first workspace must then write the same `--out` directory again.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs the four artifacts at `threads` with the working, cache, runs and
/// `--out` directories under `root`, and returns the run's stdout.
fn repro(root: &Path, out: &str, threads: &str) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(root)
        .args(["table2", "table3a", "tableA6", "fig3", "--fast", "--seed", "7", "--threads", threads])
        .arg("--cache-dir")
        .arg(root.join("cache"))
        .arg("--runs-dir")
        .arg(root.join("runs"))
        .arg("--out")
        .arg(root.join(out))
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro ({out}, --threads {threads}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// Every file directly under `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("readable")
        .map(|e| {
            let p = e.expect("entry").path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read"))
        })
        .collect()
}

fn workspace(name: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("kcb-thread-det-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("temp root");
    root
}

#[test]
fn one_and_four_threads_write_the_same_bytes_cold_and_warm() {
    let (w1, w4) = (workspace("t1"), workspace("t4"));
    let stdout1 = repro(&w1, "out-cold", "1");
    let stdout4 = repro(&w4, "out-cold", "4");
    assert!(!stdout1.is_empty(), "the run printed nothing");
    assert!(
        stdout1 == stdout4,
        "stdout differs between --threads 1 and 4:\n{}\n---\n{}",
        String::from_utf8_lossy(&stdout1),
        String::from_utf8_lossy(&stdout4)
    );

    let out = files(&w1.join("out-cold"));
    assert!(out.len() >= 4, "one JSON file per artifact: {:?}", out.keys());
    assert_eq!(files(&w4.join("out-cold")), out, "--out differs between --threads 1 and 4");

    let store = files(&w1.join("cache"));
    assert!(!store.is_empty(), "the cold run stored no checkpoint");
    let store4 = files(&w4.join("cache"));
    assert_eq!(
        store.keys().collect::<Vec<_>>(),
        store4.keys().collect::<Vec<_>>(),
        "the two stores hold different entries"
    );
    for (name, bytes) in &store {
        assert!(bytes == &store4[name], "checkpoint {name} differs between --threads 1 and 4");
    }

    repro(&w1, "out-warm", "4");
    assert_eq!(files(&w1.join("out-warm")), out, "a warm --threads 4 rerun changed --out");
    let _ = std::fs::remove_dir_all(&w1);
    let _ = std::fs::remove_dir_all(&w4);
}

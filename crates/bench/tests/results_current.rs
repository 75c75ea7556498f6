//! Drift guard for the paper tables: every `results/<name>.txt` must carry
//! the CSV block(s) its binary prints today. The tables went stale once
//! (ten of eleven, unnoticed, between the seed and PR 12) because nothing
//! compared them with the code; a kernel change that moves a Figure-1
//! number now fails here until the table — and the verdict EXPERIMENTS.md
//! draws from it — is regenerated on purpose.
//!
//! Every binary's table is guarded, the wall-clock ones included: their
//! timing columns are skipped, the logical columns beside them pinned.
//!
//! Release only: the binaries take about a minute optimized and far longer
//! in a debug build.

use std::process::Command;

/// The `--- csv:… ---` … `--- end csv ---` blocks of `text`, fences
/// included, with the named columns removed.
fn csv_blocks(text: &str, skip: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut dropped: Option<Vec<bool>> = None;
    for line in text.lines() {
        if line.starts_with("--- csv:") {
            out.push(line.to_string());
            dropped = Some(Vec::new());
        } else if line == "--- end csv ---" {
            out.push(line.to_string());
            dropped = None;
        } else if let Some(mask) = &mut dropped {
            if mask.is_empty() {
                *mask = line.split(',').map(|header| skip.contains(&header)).collect();
            }
            let kept: Vec<&str> = line
                .split(',')
                .zip(mask.iter())
                .filter(|(_, &drop)| !drop)
                .map(|(c, _)| c)
                .collect();
            out.push(kept.join(","));
        }
    }
    out
}

fn check(name: &str, exe: &str, skip: &[&str]) {
    let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let run = Command::new(exe).output().unwrap_or_else(|e| panic!("{exe}: {e}"));
    assert!(run.status.success(), "{name} exited with {}", run.status);
    let printed = String::from_utf8(run.stdout).expect("tables are UTF-8");

    let (want, got) = (csv_blocks(&committed, skip), csv_blocks(&printed, skip));
    assert!(!got.is_empty(), "{name} printed no csv block");
    if want != got {
        let mut diff = String::new();
        for i in 0..want.len().max(got.len()) {
            let (w, g) = (want.get(i), got.get(i));
            if w != g {
                if let Some(w) = w {
                    diff.push_str(&format!("-{w}\n"));
                }
                if let Some(g) = g {
                    diff.push_str(&format!("+{g}\n"));
                }
            }
        }
        panic!(
            "results/{name}.txt (-) no longer matches what `{name}` prints (+):\n{diff}\
             regenerate it with `cargo run --release -p parsim-bench --bin {name} > \
             results/{name}.txt` and re-read its verdict in EXPERIMENTS.md"
        );
    }
}

macro_rules! tables {
    ($($name:ident $(without [$($skip:literal),*])?;)*) => {
        /// Every binary the guard runs.
        const GUARDED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            #[cfg_attr(debug_assertions, ignore = "release only: runs the experiment binary")]
            fn $name() {
                let skip: &[&str] = &[$($($skip),*)?];
                check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))), skip);
            }
        )*
    };
}

tables! {
    fig1_speedup;
    exp_scaling;
    exp_partitioning;
    exp_granularity;
    exp_cancellation;
    exp_state_saving;
    // E6 times two sequential kernels on the host: its millisecond columns
    // (and the winner they imply) are not a pure function of the code.
    exp_activity without ["evd ms", "obl ms", "winner"];
    exp_granularity_lp;
    exp_presim;
    exp_barrier;
    exp_nullmsg;
    // The four tables below time real threads, sockets or packed sweeps on
    // the host; only their timing columns are skipped.
    exp_threaded without ["wall_ms", "kev_per_s"];
    exp_bitparallel without ["wall_ms", "patterns_per_s", "speedup_vs_oblivious"];
    exp_faults without ["wall_ms"];
    exp_server without ["jobs_per_s", "p50_ms", "p99_ms"];
}

/// A new binary cannot dodge the guard: every `src/bin/<name>.rs` needs a
/// committed `results/<name>.txt` and an entry above.
#[test]
fn every_binary_is_guarded() {
    let root = env!("CARGO_MANIFEST_DIR");
    let bins = std::fs::read_dir(format!("{root}/src/bin")).expect("src/bin is readable");
    let names = bins
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().expect("file name").to_string_lossy().into_owned());
    for name in names {
        assert!(GUARDED.contains(&name.as_str()), "src/bin/{name}.rs has no guard entry");
        let table = format!("{root}/../../results/{name}.txt");
        assert!(std::path::Path::new(&table).is_file(), "src/bin/{name}.rs has no {table}");
    }
}

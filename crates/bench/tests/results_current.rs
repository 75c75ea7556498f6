//! Drift guard for the paper tables: every `results/<name>.txt` must carry
//! the CSV block(s) its binary prints today. The tables went stale once
//! (ten of eleven, unnoticed, between the seed and PR 12) because nothing
//! compared them with the code; a kernel change that moves a Figure-1
//! number now fails here until the table — and the verdict EXPERIMENTS.md
//! draws from it — is regenerated on purpose.
//!
//! Release only: the binaries take about two minutes optimized and far
//! longer in a debug build.

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

macro_rules! paper_tables {
    ($($name:ident $(without [$($skip:literal),*])?;)*) => {$(
        #[test]
        #[cfg_attr(debug_assertions, ignore = "release only: runs the experiment binary")]
        fn $name() {
            let skip: &[&str] = &[$($($skip),*)?];
            check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))), skip);
        }
    )*};
}

paper_tables! {
    fig1_speedup;
    exp_scaling;
    exp_partitioning;
    exp_granularity;
    exp_cancellation;
    exp_state_saving;
    // E6 times two sequential kernels on the host: its millisecond columns
    // (and the winner they imply) are the only cells of any paper table
    // that are not a pure function of the code.
    exp_activity without ["evd ms", "obl ms", "winner"];
    exp_granularity_lp;
    exp_presim;
    exp_barrier;
    exp_nullmsg;
}

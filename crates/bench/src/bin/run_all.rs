//! Run every figure/table harness in sequence (quick scale by default) —
//! the one-command reproduction entry point. Every harness runs even if
//! an earlier one fails; the exit status is non-zero if any failed.
//!
//! `cargo run --release -p fecim-bench --bin run_all [--scale quick|paper]`

use std::process::Command;

fn main() {
    let scale_args: Vec<String> = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.is_empty() {
            vec!["--scale".into(), "quick".into()]
        } else {
            args
        }
    };
    let binaries = [
        ("fig2_device_curves", vec![]),
        ("fig6_dgfefet", vec![]),
        ("fig8_energy", vec!["--trace"]),
        ("fig9_time", vec!["--trace"]),
        ("fig10_success", vec![]),
        ("table1_summary", vec![]),
        ("ablation_sweeps", vec![]),
    ];
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();
    let mut failed = Vec::new();
    for (bin, extra) in binaries {
        println!("\n================================================================");
        println!("== {bin}");
        println!("================================================================");
        let mut cmd = Command::new(exe_dir.join(bin));
        // Figure binaries that don't take --scale just ignore unknown args.
        if matches!(
            bin,
            "fig8_energy" | "fig9_time" | "fig10_success" | "table1_summary" | "ablation_sweeps"
        ) {
            cmd.args(&scale_args);
        }
        cmd.args(extra);
        match cmd.status() {
            Ok(status) if status.success() => continue,
            Ok(status) => eprintln!("error: {bin} exited with {status}"),
            Err(e) => eprintln!("error: could not run {bin}: {e} (build with `cargo build --release -p fecim-bench` first)"),
        }
        failed.push(bin);
    }
    if !failed.is_empty() {
        fecim_bench::fail_exit(&format!("failed harnesses: {}", failed.join(", ")));
    }
}

//! Command-line test of the reproduction binaries: `--quick` is the one
//! argument they accept. Anything else — a typo, or a flag they do not
//! have, such as `--mode` — is refused with exit status 2 and a usage line
//! naming it, before an experiment runs or a report is written.

use std::process::Command;

#[test]
fn repro_bins_refuse_unknown_arguments_before_running() {
    let cases: [(&[&str], &str); 3] = [
        (&["--mode", "dense"], "--mode"),
        (&["--quik"], "--quik"),
        (&["--quick", "--mode", "dense"], "--mode"),
    ];
    for (case, (args, named)) in cases.into_iter().enumerate() {
        // A fresh working directory per case: a binary that ran would
        // write `reports/table1.json` into it.
        let dir = std::env::temp_dir().join(format!("wm-bench-args-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory is created");
        let output = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("table1 runs");
        let ran = dir.join("reports").exists();
        std::fs::remove_dir_all(&dir).expect("scratch directory is removed");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument {named:?}"))
                && stderr.contains("usage: table1 [--quick]"),
            "{args:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} printed a table");
        assert!(!ran, "{args:?} wrote a report");
    }
}

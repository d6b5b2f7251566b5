//! Helpers shared by the reproduction binaries.

use wiki_bench::{ExperimentContext, StandardDatasets};

/// Builds the experiment context from the command line. The one accepted
/// argument is `--quick`, which switches to the reduced datasets (useful
/// for smoke runs). Any other argument is a usage error: the binary exits
/// with status 2 before a dataset is generated, so a mistyped flag cannot
/// silently run the default experiment.
pub fn context_from_args() -> ExperimentContext {
    let bin = env!("CARGO_BIN_NAME");
    let mut quick = false;
    for arg in std::env::args_os().skip(1) {
        if arg != "--quick" {
            eprintln!("{bin}: unknown argument {arg:?}; usage: {bin} [--quick]");
            std::process::exit(2);
        }
        quick = true;
    }
    let datasets = if quick {
        eprintln!("(running on the reduced --quick datasets)");
        StandardDatasets::quick()
    } else {
        StandardDatasets::standard()
    };
    ExperimentContext::new(datasets)
}

/// The two language-pair names in report order.
///
/// Not every binary iterates over both pairs (e.g. `table1` picks its own
/// sample), hence the allow.
#[allow(dead_code)]
pub const PAIRS: [&str; 2] = ["Portuguese-English", "Vietnamese-English"];

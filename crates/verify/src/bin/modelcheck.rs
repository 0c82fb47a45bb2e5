//! Exhaustive model-checking entry point.
//!
//! Verifies deadlock-freedom and credit conservation for the paper's
//! two-node topology and the `mesh_bisection` mesh, then writes the
//! state counts to `MC_modelcheck.json` (uploaded as a CI artifact).
//! Exits non-zero if any property fails, printing the minimal
//! counterexample trace.
//!
//! Run a deliberately broken configuration with `--negative` to see the
//! counterexample machinery in action (this mode *expects* the failure
//! and exits zero when it is caught).

use std::fmt::Write as _;
use tcc_verify::{check, Fault, McConfig};

struct ConfigRun {
    name: &'static str,
    config: McConfig,
}

fn main() {
    let negative = std::env::args().any(|a| a == "--negative");
    if negative {
        run_negative();
        return;
    }

    let runs = [
        ConfigRun {
            name: "paper_pair",
            config: McConfig::paper_pair(),
        },
        ConfigRun {
            name: "mesh_2x2",
            config: McConfig::mesh_2x2(),
        },
    ];

    let mut json = String::from("{\n  \"configs\": [\n");
    let mut failed = false;
    for (i, run) in runs.iter().enumerate() {
        let result = check(run.config);
        let holds = result.holds();
        println!(
            "{}: {} states, {} transitions — {}",
            run.name,
            result.states,
            result.transitions,
            if holds { "PROVED" } else { "FAILED" }
        );
        if let Some(cex) = &result.counterexample {
            eprintln!("{cex}");
            failed = true;
        }
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"states\": {}, \"transitions\": {}, \"holds\": {}}}{}",
            run.name,
            result.states,
            result.transitions,
            holds,
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"properties\": [\"deadlock_freedom\", \"credit_conservation\"]\n}\n");
    std::fs::write("MC_modelcheck.json", &json).expect("write MC_modelcheck.json");
    println!("wrote MC_modelcheck.json");
    if failed {
        std::process::exit(1);
    }
}

/// Negative mode: break the protocol on purpose and demand the checker
/// catches it with a minimal trace.
fn run_negative() {
    let mut cfg = McConfig::paper_pair();
    cfg.fault = Some(Fault::DropCreditReturn { link: 0 });
    let result = check(cfg);
    match result.counterexample {
        Some(cex) => {
            println!("negative check caught the fault as expected:\n{cex}");
        }
        None => {
            eprintln!("negative check FAILED: fault went undetected");
            std::process::exit(1);
        }
    }
}

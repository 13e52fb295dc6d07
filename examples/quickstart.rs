//! Quickstart: run the full ALICE flow on the GCD benchmark and print the
//! redaction summary.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use alice_redaction::benchmarks;
use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::flow::Flow;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Load a benchmark design (Verilog in, hierarchy out).
    let bench = benchmarks::gcd::benchmark();
    let design = bench.design()?;
    println!(
        "design `{}`: top {}, {} redactable instances",
        design.name,
        design.hierarchy.top,
        design.instance_paths().len()
    );

    // cfg1 from the paper: at most 64 I/O pins per cluster, two eFPGAs.
    let config = bench.config(AliceConfig::cfg1());
    let outcome = Flow::new(config).run(&design)?;

    println!("|R| = {} candidate modules", outcome.report.candidates);
    println!("|C| = {} candidate clusters", outcome.report.clusters);
    println!(
        "{} valid eFPGAs, |S| = {} solutions",
        outcome.report.valid_efpgas, outcome.report.solutions
    );

    let Some(redacted) = &outcome.redacted else {
        println!("no feasible redaction under this configuration");
        return Ok(());
    };
    for e in &redacted.efpgas {
        println!(
            "eFPGA {} ({}): redacts {:?} at `{}`, {} config bits (secret)",
            e.module_name,
            e.size,
            e.instances,
            e.insertion_point,
            e.config_stream.len()
        );
    }
    println!(
        "redacted top ASIC module: {} lines of Verilog",
        redacted.top_asic_verilog().lines().count()
    );
    Ok(())
}

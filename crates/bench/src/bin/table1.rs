//! Table 1 reproduction: overall energy savings for adpcm / g721 /
//! mpeg across memory sizes, for SP(CASA), SP(Steinke) and LC(Ross).
//!
//! Usage: `cargo run --release -p casa-bench --bin table1 [scale]
//!         [--timing] [--trace-out <path>]`
//!
//! `--trace-out <path>` (or `CASA_TRACE=1`) instruments every flow
//! and writes a Chrome `trace_event` timeline of all rows.

use casa_bench::experiments::{paper_sizes, table1_obs, Table1Row};
use casa_bench::runner::{cli_obs, cli_scale, prepared};
use casa_workloads::mediabench;

fn main() {
    let scale = cli_scale();
    let timing = std::env::args().any(|a| a == "--timing");
    let cli = cli_obs();

    println!("Table 1 — overall energy savings (energies in µJ)\n");
    println!(
        "{:<10} {:>8} {:>12} {:>13} {:>11} {:>18} {:>16}",
        "benchmark",
        "size[B]",
        "SP(CASA)",
        "SP(Steinke)",
        "LC(Ross)",
        "CASA vs Steinke %",
        "CASA vs LC %"
    );

    for spec in mediabench::all() {
        let name = spec.name.clone();
        let (cache, sizes) = paper_sizes(&name);
        let w = prepared(spec, scale, 2004);
        let block = table1_obs(&w, cache, &sizes, &cli.obs);
        for r in &block.rows {
            println!(
                "{:<10} {:>8} {:>12.2} {:>13.2} {:>11.2} {:>18.1} {:>16.1}",
                r.benchmark,
                r.mem_size,
                r.sp_casa_uj,
                r.sp_steinke_uj,
                r.lc_ross_uj,
                r.casa_vs_steinke_pct(),
                r.casa_vs_lc_pct()
            );
        }
        println!(
            "{:<10} {:>8} {:>12} {:>13} {:>11} {:>18.1} {:>16.1}",
            "",
            "avg",
            "",
            "",
            "",
            block.avg_vs_steinke(),
            block.avg_vs_lc()
        );
        if timing {
            let max_t = block
                .rows
                .iter()
                .map(|r: &Table1Row| r.casa_solver_secs)
                .fold(0.0f64, f64::max);
            println!("{:<10} max CASA solver time: {:.4} s", "", max_t);
        }
        println!();
    }
    println!("paper averages: adpcm 29.0/44.1, g721 8.2/19.7, mpeg 28.0/26.0");
    if let Some(path) = cli.finish() {
        println!("wrote Chrome trace to {}", path.display());
    }
}

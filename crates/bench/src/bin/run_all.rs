//! Runs every experiment in sequence (README's "Reproducing the paper's
//! tables").
//!
//! Scale/query-count via `ISLABEL_SCALE` / `ISLABEL_QUERIES`.

use islabel_bench::experiments as ex;

fn main() {
    let scale = std::env::var("ISLABEL_SCALE").unwrap_or_else(|_| "small".into());
    let queries = islabel_bench::env_num_queries();
    println!("IS-LABEL experiment suite  (scale = {scale}, queries = {queries})\n");
    println!("Figures 1-3 are worked examples; they are verified bit-exactly by");
    println!("`cargo test -p islabel-core paper_example` (hierarchy, labels, queries).\n");
    for table in [
        ex::table2(),
        ex::table3(),
        ex::table4(),
        ex::table5(),
        ex::table6(),
        ex::table7(),
        ex::table8(),
        ex::table9(),
        ex::engine_matrix(),
        ex::ablation_strategy(),
        ex::ablation_sigma(),
        ex::ablation_twohop(),
        ex::ablation_parallel(),
    ] {
        println!("{table}");
    }
}

//! `islabel_benchmark` — the one command behind `BENCHMARK.json`; see the
//! crate docs and `benchmark/README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(islabel_benchmark::cli::main(&args));
}

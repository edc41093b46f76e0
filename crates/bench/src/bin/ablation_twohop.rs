//! Ablation runner (see README's "Reproducing the paper's tables").

fn main() {
    println!("{}", islabel_bench::experiments::ablation_twohop());
}

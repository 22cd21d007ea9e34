//! `singe-benchmark`: the repository's benchmark. See `README.md` beside
//! this crate for what is measured and why.

mod check;
mod compare;
mod figures;
mod gen;
mod json;
mod pass;
mod run;
mod search;
mod serve;
mod sim;
mod spec;
mod stats;
mod trace;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run::main(&args));
}

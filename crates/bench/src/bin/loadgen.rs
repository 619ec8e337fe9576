//! `atpm-loadgen` — the serve tier's end-to-end drill: batch-route passes
//! with `/metrics` scrapes, a kill -9 crash drill and a profile window
//! under load, judged in-process; exits nonzero on any failure.
//!
//! ```text
//! cargo build --release -p atpm-serve --bin atpm-served   # the drill's child
//! cargo run -p atpm-bench --release --bin atpm-loadgen -- [--json PATH]
//! ```
//!
//! `--json PATH` names the report file (default `BENCH_serve.json`).

use atpm_bench::loadgen::{parse_args, run, DEFAULT_JSON};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match parse_args(&args) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: atpm-loadgen [--json PATH]   (default {DEFAULT_JSON})");
            std::process::exit(2);
        }
    };
    let t0 = std::time::Instant::now();
    if let Err(e) = run(&path) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    eprintln!("# wrote {}", path.display());
    eprintln!("# total wall-clock: {:.1?}", t0.elapsed());
}

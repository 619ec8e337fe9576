//! `atpm-loadgen` — hammer an `atpm-serve` instance over loopback and
//! report throughput + latency percentiles per concurrency level.
//!
//! ```text
//! cargo run -p atpm-bench --release --bin atpm-loadgen -- [flags]
//!
//! flags: --quick                smoke configuration (CI serve-smoke job)
//!        --addr HOST:PORT       drive an external server (default: boot one)
//!        --levels a,b,c         concurrent-session levels   (default 1,2,4)
//!        --sessions N           sessions per level          (default 16)
//!        --rate R               ALSO run open-loop: R session arrivals/s
//!        --open-sessions N      open-loop total arrivals    (default 48)
//!        --open-workers N       open-loop client threads    (default 16)
//!        --mix p=w,p=w          session mix                 (default hatp=1,ars=2,deploy_all=3;
//!                               policies: hatp | ars | deploy_all | threshold_batch)
//!        --batch-size a,b       seeds per round trip; each size is its own
//!                               closed-loop measurement (default 1; sizes > 1
//!                               drive the batched next_batch/observe_batch verbs)
//!        --crash-every N        ALSO run the crash-restart drill: kill -9 a
//!                               journaling atpm-served child every N
//!                               completed sessions; hard-fail unless every
//!                               acked session recovers bit-equal
//!        --scale F --k N --rr-theta N --seed S    snapshot knobs
//!        --json PATH            report file (default BENCH_serve.json); --no-json
//! ```

use atpm_bench::loadgen::{render, run, LoadgenConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match LoadgenConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: atpm-loadgen [--quick] [--addr HOST:PORT] \
                 [--levels a,b,c] [--sessions N] [--rate R] \
                 [--open-sessions N] [--open-workers N] [--mix p=w,...] \
                 [--batch-size a,b] [--crash-every N] [--scale F] [--k N] [--rr-theta N] \
                 [--seed S] [--json PATH | --no-json]"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "# loadgen: levels={:?} sessions/level={} rate={:?} mix={:?} batch={:?} scale={} k={} target={}",
        cfg.levels,
        cfg.sessions_per_level,
        cfg.rate,
        cfg.mix,
        cfg.batch_sizes,
        cfg.scale,
        cfg.k,
        match &cfg.addr {
            Some(a) => a.clone(),
            None => "(self-booted server)".to_string(),
        },
    );
    let t0 = std::time::Instant::now();
    match run(&cfg) {
        Ok(reports) => {
            print!("{}", render(&reports));
            if let Some(path) = &cfg.json_path {
                eprintln!("# wrote {path}");
            }
            eprintln!("# total wall-clock: {:.1?}", t0.elapsed());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

//! `experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p atpm-bench --release --bin experiments -- <subcommand> [flags]
//!
//! subcommands: table2 fig2 fig3 fig4a fig4b fig5 fig6 fig7 fig8 fig9 ablation all
//! flags:       --paper | --quick | --scale F | --worlds N | --k a,b,c
//!              --threads N | --seed S | --no-addatp
//!              --graph PATH (external edge-list/ATPMGRF1 file instead of presets)
//! ```

use atpm_bench::config::ExpConfig;
use atpm_bench::runs;
use atpm_core::setup::TargetSelector;
use atpm_core::CostSplit;
use atpm_graph::gen::Dataset;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <table2|fig2|fig3|fig4a|fig4b|fig5|fig6|fig7|fig8|fig9|ablation|all> \
         [--paper] [--quick] [--scale F] [--worlds N] [--k a,b,c] [--threads N] \
         [--seed S] [--no-addatp] [--graph PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let cfg = match ExpConfig::parse(&args[1..]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };
    eprintln!(
        "# config: paper={} worlds={} k={:?} threads={} seed={} scale_mult={}",
        cfg.paper, cfg.worlds, cfg.k_grid, cfg.threads, cfg.seed, cfg.scale_mult
    );
    // Validate an external graph up front so a bad path fails fast with a
    // clean message instead of mid-run.
    if let Some(path) = &cfg.graph_path {
        match cfg.load_graph_override() {
            Ok(Some(g)) => eprintln!(
                "# external graph {path}: n={} m={} (replaces preset generation; grids run one dataset slot)",
                g.num_nodes(),
                g.num_edges()
            ),
            Ok(None) => unreachable!(),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    let t0 = std::time::Instant::now();
    match cmd.as_str() {
        "table2" => print!("{}", runs::table2(&cfg)),
        "fig2" | "fig5" => {
            let res = runs::profit_grid(&cfg, CostSplit::DegreeProportional, cfg.datasets());
            print!(
                "{}",
                runs::render_profit(&res, "Fig. 2 (degree-proportional cost)")
            );
            print!(
                "{}",
                runs::render_time(&res, "Fig. 5 (degree-proportional cost)")
            );
        }
        "fig3" | "fig6" => {
            let res = runs::profit_grid(&cfg, CostSplit::Uniform, cfg.datasets());
            print!("{}", runs::render_profit(&res, "Fig. 3 (uniform cost)"));
            print!("{}", runs::render_time(&res, "Fig. 6 (uniform cost)"));
        }
        "fig4a" => {
            let res = runs::profit_grid(
                &cfg,
                CostSplit::Random { seed: cfg.seed },
                &[Dataset::Epinions],
            );
            print!(
                "{}",
                runs::render_profit(&res, "Fig. 4(a) (random cost, Epinions)")
            );
        }
        "fig4b" => print!("{}", runs::fig4b(&cfg)),
        "fig7" => print!("{}", runs::fig78(&cfg, TargetSelector::Ndg)),
        "fig8" => print!("{}", runs::fig78(&cfg, TargetSelector::Nsg)),
        "fig9" => print!("{}", runs::fig9(&cfg)),
        "ablation" => print!("{}", runs::ablation(&cfg)),
        "all" => {
            print!("{}", runs::table2(&cfg));
            let res = runs::profit_grid(&cfg, CostSplit::DegreeProportional, cfg.datasets());
            print!(
                "{}",
                runs::render_profit(&res, "Fig. 2 (degree-proportional cost)")
            );
            print!(
                "{}",
                runs::render_time(&res, "Fig. 5 (degree-proportional cost)")
            );
            let res = runs::profit_grid(&cfg, CostSplit::Uniform, cfg.datasets());
            print!("{}", runs::render_profit(&res, "Fig. 3 (uniform cost)"));
            print!("{}", runs::render_time(&res, "Fig. 6 (uniform cost)"));
            let res = runs::profit_grid(
                &cfg,
                CostSplit::Random { seed: cfg.seed },
                &[Dataset::Epinions],
            );
            print!(
                "{}",
                runs::render_profit(&res, "Fig. 4(a) (random cost, Epinions)")
            );
            print!("{}", runs::fig4b(&cfg));
            print!("{}", runs::fig78(&cfg, TargetSelector::Ndg));
            print!("{}", runs::fig78(&cfg, TargetSelector::Nsg));
            print!("{}", runs::fig9(&cfg));
            print!("{}", runs::ablation(&cfg));
        }
        _ => usage(),
    }
    eprintln!("# total wall-clock: {:.1?}", t0.elapsed());
}

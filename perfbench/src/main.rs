//! Command-line front of the benchmark: prints a summary, then the
//! result line as the last line of standard output.

use perfbench::{pin_environment, report::result_line, run, Config};

fn main() {
    pin_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::from_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <table4_full|certify_small|serve_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(out) => {
            for note in &out.notes {
                println!("{note}");
            }
            for m in &out.metrics {
                println!("{:<24} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("attempted={} failed={}", out.attempted, out.failed);
            println!("{}", result_line(out.attempted, out.failed, &out.metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

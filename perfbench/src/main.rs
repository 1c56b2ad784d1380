//! Runs one benchmark workload and prints its report, then the JSON result
//! as the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload llbp_cold --seed 1 --seconds 50 --trace 0
//! ```

use llbp_perfbench::alloc::CountingAlloc;
use llbp_perfbench::{run, Args, USAGE};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    let base = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("error: no working directory: {e}");
        std::process::exit(1);
    });
    match run(&args, &base) {
        Ok(outcome) => {
            print!("{}", outcome.report());
            println!("{}", outcome.json());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

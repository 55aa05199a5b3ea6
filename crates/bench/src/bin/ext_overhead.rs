//! `ext_overhead [gate…] [--smoke]` — the paired overhead gates of
//! [`rjms_bench::overhead`]: `observer`, `trace`, `obs`, `flow`,
//! `topic_obs`, `forecast`; all six when none is named.
//!
//! ```text
//! cargo run --release -p rjms-bench --bin ext_overhead -- trace --smoke
//! ```

use rjms_bench::overhead::{Gate, GATES};

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|arg| arg.starts_with("--"));
    let smoke = flags.iter().any(|flag| flag == "--smoke");
    let known = || GATES.iter().map(|gate| gate.name).collect::<Vec<_>>().join("|");
    if let Some(flag) = flags.iter().find(|flag| *flag != "--smoke") {
        eprintln!("error: unknown flag `{flag}`; usage: ext_overhead [{}]... [--smoke]", known());
        std::process::exit(2);
    }
    let chosen: Vec<&Gate> = if names.is_empty() {
        GATES.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                GATES.iter().find(|gate| gate.name == name).unwrap_or_else(|| {
                    eprintln!("error: unknown gate `{name}` ({})", known());
                    std::process::exit(2);
                })
            })
            .collect()
    };
    // Every chosen gate runs and prints its table before the verdict.
    let failed: Vec<&str> =
        chosen.iter().filter(|gate| !gate.run(smoke)).map(|gate| gate.name).collect();
    if !failed.is_empty() {
        println!("over budget: {}", failed.join(", "));
        std::process::exit(1);
    }
}

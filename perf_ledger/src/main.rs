//! `perf_ledger`: the native-speed benchmark of the rjms broker.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints its result line (the form `BENCHMARK.json`'s
//! command is run in). Without `--workload` it runs every workload, each
//! in a fresh child process, untraced and traced, and prints the whole
//! ledger; `--aa K` and `--smoke` are variations of that. See README.md.

#![forbid(unsafe_code)]

mod drive;
mod inputs;
mod layers;
mod ledger;
mod procfs;
mod stats;
mod workloads;

use drive::Plan;
use ledger::{Measured, Metric, ResultLine, Values, Windows, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::{Env, Route, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: three windows of four seconds.
pub const RUN_SECONDS: u32 = 12;
/// `setup_s` is the median of repeated set-ups, half of them made before
/// the measurement and half after it. One set-up takes 0.05 to 1 ms, and
/// for seconds at a time this box makes everything a third slower, so it
/// takes hundreds of them, spread over the run, for a median that repeats.
/// Each half makes as many as fit into `SETUP_BUDGET` of set-up time,
/// within `SETUP_REPEATS`.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 5..=500;
const SETUP_BUDGET: Duration = Duration::from_millis(250);

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        aa: None,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--aa" => {
                let k: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if k < 2 {
                    return Err("--aa needs at least 2 sets".to_owned());
                }
                args.aa = Some(k);
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// A directory for journals next to the executable, so that everything
/// written stays inside the build directory of the checkout.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let dir = exe
        .parent()
        .expect("executable has a directory")
        .join("ledger_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Sets the workload up, runs one phase on it and tears it down.
fn measure(w: &Workload, seed: u64, plan: Plan, metrics: bool, scratch: &Path) -> Measured {
    let setup = workloads::set_up(w, seed, metrics, scratch.join("journal"));
    measure_on(setup, w, seed, plan)
}

/// Runs one phase and reads everything out of the program before tearing
/// it down. Copies on subscriptions that match nothing count as failures.
fn measure_on(setup: workloads::Setup, w: &Workload, seed: u64, plan: Plan) -> Measured {
    let mut phase = drive::run_phase(&setup.env, &setup.factory, plan, seed, w.paced_rate);
    let broker = setup.env.broker();
    let clients = match &setup.env {
        Env::Inproc { idle, .. } => {
            phase.failed += idle.iter().map(|s| s.queued() as u64).sum::<u64>();
            Vec::new()
        }
        Env::TcpDelivery { client, .. } => vec![client.metrics()],
        Env::TcpPubsub { publisher, consumer, .. } => vec![publisher.metrics(), consumer.metrics()],
    };
    let measured = Measured {
        snapshot: broker.snapshot(),
        registry: broker.metrics().map(|r| r.snapshot()),
        client_rtt_p50_ns: Measured::client_rtt_p50(&clients),
        phase,
    };
    setup.tear_down();
    measured
}

struct Outcome {
    attempted: u64,
    failed: u64,
    table: &'static [Metric],
    values: Values,
    /// Printed but not in the result line: name, value, unit.
    diagnostics: Vec<(&'static str, f64, &'static str)>,
    /// Window-by-window values behind the medians, for the printout.
    windows: Vec<(&'static str, Vec<f64>)>,
}

/// Sets `w` up again and again, appending the time of each to `times`,
/// and returns the last set-up made.
///
/// A second thread spins meanwhile. Set-up and tear-down map and unmap
/// thread stacks and queue buffers, for which the kernel interrupts the
/// other CPU unless that CPU idles in a way that lets it skip the
/// interrupt. Whether it does depends on what ran there last and on the
/// host, and for minutes at a time the same set-up then reads 230 µs or
/// 340 µs. With the other CPU busy, as it is in a broker that is already
/// serving, it reads 310 to 370 µs every time. The TCP set-ups are left
/// alone: their handshakes go back and forth between client and server
/// threads, which need both CPUs, and they repeat within a tenth as is.
fn repeat_set_up(
    w: &Workload,
    args: &Args,
    scratch: &Path,
    times: &mut Vec<f64>,
) -> workloads::Setup {
    let (mut made, mut spent) = (0, Duration::ZERO);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let spare_cpu = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        if spare_cpu && w.route == Route::Inproc {
            scope.spawn(move || {
                while matches!(done_rx.try_recv(), Err(mpsc::TryRecvError::Empty)) {
                    for _ in 0..1000 {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        // Dropped on return, which ends the spinning thread.
        let _done_tx = done_tx;
        loop {
            let start = Instant::now();
            let setup = workloads::set_up(w, args.seed, false, scratch.join("journal"));
            let took = start.elapsed();
            times.push(took.as_secs_f64());
            made += 1;
            spent += took;
            let enough = made >= *SETUP_REPEATS.start() && spent >= SETUP_BUDGET;
            if args.smoke || enough || made >= *SETUP_REPEATS.end() {
                return setup;
            }
            setup.tear_down();
        }
    })
}

/// The end-to-end run: tracing off, the full `seconds` in one phase.
fn run_untraced(w: &Workload, args: &Args, scratch: &Path) -> Outcome {
    let warmup = if args.smoke { 0.1 } else { 1.0 };
    let mut setup_times = Vec::new();
    let setup = repeat_set_up(w, args, scratch, &mut setup_times);
    let plan = Plan::new(args.seconds, warmup, false, w.latency_every);
    let measured = measure_on(setup, w, args.seed, plan);
    repeat_set_up(w, args, scratch, &mut setup_times).tear_down();
    let windows = Windows::of(w, &measured.phase);
    Outcome {
        attempted: measured.phase.attempted,
        failed: measured.phase.failed,
        table: &END_TO_END,
        values: ledger::end_to_end(&windows, stats::median_f64(&setup_times)),
        diagnostics: vec![
            ("peak_rss_mb", procfs::peak_rss_mib(), "MiB"),
            ("lat_p50_us", stats::median_f64(&windows.lat_p50_us), "us"),
        ],
        windows: vec![
            ("msgs_per_s", windows.msgs_per_s),
            ("cpu_us_per_msg", windows.cpu_us_per_msg),
            ("lat_p50_us", windows.lat_p50_us),
        ],
    }
}

/// The traced run: a third of `seconds` each for the workload with
/// benchmark-side spans, the same with the broker's instruments on, and
/// the model grid; then the timed calls.
fn run_traced(w: &Workload, args: &Args, scratch: &Path) -> Outcome {
    let third = args.seconds / 3.0;
    let plan = Plan::new(third, 0.5, true, w.latency_every);
    let plain = measure(w, args.seed, plan, false, scratch);
    let metered = measure(w, args.seed, plan, true, scratch);
    let model = layers::model_fit(args.seed, third, scratch);
    let micro = layers::micro_timings(args.seed, scratch);
    let mut values = ledger::per_layer(w, &plain, &metered, micro, model);
    values.push(("peak_rss_mb", procfs::peak_rss_mib()));
    Outcome {
        attempted: plain.phase.attempted + metered.phase.attempted,
        failed: plain.phase.failed + metered.phase.failed,
        table: &PER_LAYER,
        values,
        diagnostics: Vec::new(),
        windows: Vec::new(),
    }
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let scratch = scratch_dir();
    let outcome =
        if args.trace { run_traced(w, args, &scratch) } else { run_untraced(w, args, &scratch) };
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "workload {} seed {} seconds {} trace {} | {} cpus, loopback TCP, journal under {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        scratch.display(),
    );
    let line = |name: &str, value: f64, unit: &str| {
        let windows =
            outcome.windows.iter().find(|(n, _)| *n == name).map_or_else(String::new, |(_, v)| {
                let each: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
                format!("  windows {}", each.join(" "))
            });
        println!("  {name:<40} {value:>16.6} {unit}{windows}");
    };
    for m in outcome.table {
        let value = outcome.values.iter().find(|(n, _)| *n == m.name).map_or(f64::NAN, |v| v.1);
        line(m.name, value, m.unit);
    }
    for (name, value, unit) in &outcome.diagnostics {
        line(name, *value, &format!("{unit} (diagnostic)"));
    }
    println!("  attempted {} failed {}", outcome.attempted, outcome.failed);
    println!(
        "{}",
        ledger::result_line(outcome.attempted, outcome.failed, outcome.table, &outcome.values)
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Runs one workload in a fresh child process, so that `peak_rss_mb` is
/// the workload's own. Returns its parsed result line and what it printed
/// before that line.
fn run_child(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(ResultLine, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--workload", w.name, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("{}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    let result = ledger::parse_result_line(line).ok_or_else(|| {
        format!("{}: no result line; stderr: {}", w.name, String::from_utf8_lossy(&output.stderr))
    })?;
    Ok((result, report.to_owned()))
}

/// Every workload once: untraced, then (unless `smoke`) traced.
fn run_all(args: &Args) -> Result<u64, String> {
    let mut failed_total = 0;
    for w in &WORKLOADS {
        let kind = if w.gated { "gated" } else { "diagnostic" };
        println!("== {} ({kind}) — {}", w.name, w.why);
        let (untraced, report) = run_child(w, args.seed, args.seconds, false, args.smoke)?;
        println!(
            "  attempted {} failed {} failed_share {}",
            untraced.attempted,
            untraced.failed,
            untraced.failed as f64 / untraced.attempted.max(1) as f64
        );
        failed_total += untraced.failed;
        if args.smoke {
            continue;
        }
        println!("{report}");
        let (traced, report) = run_child(w, args.seed, args.seconds, true, false)?;
        failed_total += traced.failed;
        println!("{report}");
    }
    Ok(failed_total)
}

/// `--aa K`: the untraced set K times on this build, every other set in
/// reverse order, and for each workload and end-to-end metric the K
/// values, their interquartile spread and whether it is within the bound.
fn run_aa(args: &Args, sets: usize) -> Result<u64, String> {
    let mut failed_total = 0;
    // values[workload][metric] = one value per set
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for set in 0..sets {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for index in order {
            let w = &WORKLOADS[index];
            eprintln!("set {} of {sets}: {}", set + 1, w.name);
            let (run, _) = run_child(w, args.seed + set as u64, args.seconds, false, false)?;
            failed_total += run.failed;
            for (slot, m) in values[index].iter_mut().zip(&END_TO_END) {
                let value = run.value(m.name);
                slot.push(value.ok_or_else(|| format!("{}: {} missing", w.name, m.name))?);
            }
        }
    }
    println!("| workload | metric | values | median | spread | bound | within |");
    println!("|---|---|---|---|---|---|---|");
    let mut outside = 0;
    for (w, per_metric) in WORKLOADS.iter().zip(&values) {
        for (m, runs) in END_TO_END.iter().zip(per_metric) {
            let spread = stats::iqr_share(runs);
            // The contract leaves the spread of `setup_s` unchecked, and
            // holds diagnostic workloads to nothing.
            let within = spread <= m.bound || m.name == "setup_s";
            outside += u64::from(w.gated && !within);
            // Four significant digits, whether it is msgs/s or seconds.
            let short = |v: f64| if v < 1000.0 { format!("{v:.3e}") } else { format!("{v:.0}") };
            let listed: Vec<String> = runs.iter().map(|v| short(*v)).collect();
            println!(
                "| {} | {} ({}, {} is better) | {} | {} | {:.1} % | {:.0} % | {} |",
                w.name,
                m.name,
                m.unit,
                m.better,
                listed.join(" "),
                short(stats::median_f64(runs)),
                spread * 100.0,
                m.bound * 100.0,
                match (w.gated, within) {
                    (false, _) => "diagnostic",
                    (true, true) => "yes",
                    (true, false) => "NO",
                },
            );
        }
    }
    println!(
        "{outside} metric x workload pairs outside their bound; {failed_total} failed operations"
    );
    Ok(failed_total + outside)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            return ExitCode::from(64);
        }
    };
    if let Some(name) = &args.workload {
        let Some(w) = workloads::find(name) else {
            eprintln!("perf_ledger: no workload named {name}");
            return ExitCode::from(64);
        };
        return run_one(w, &args);
    }
    if args.smoke {
        args.seconds = 0.5;
    }
    let result = match args.aa {
        Some(sets) => run_aa(&args, sets),
        None => run_all(&args),
    };
    match result {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(2),
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            ExitCode::FAILURE
        }
    }
}

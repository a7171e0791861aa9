//! LeCA end-to-end benchmark: sensor readout to reply.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, writes a record with its
//! provenance under `benchmark/out/`, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. Exits non-zero on a
//! wrong class, a broken accounting invariant or a failed self-check.
//! Workloads and metrics are described in `benchmark/README.md`.

mod hostclock;
mod offline;
mod report;
mod serve;
mod stats;
mod trace;

use hostclock::HostClock;
use std::time::{Duration, Instant};

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-ups per run; `setup_s` is the interquartile mean of their
/// reference-time lengths.
const SETUP_REPS: usize = 16;
/// Pause between set-ups, so they sample the host at different moments
/// rather than all in one burst of contention from other tenants.
const SETUP_GAP: Duration = Duration::from_millis(100);

pub const WORKLOADS: [&str; 2] = ["serve_overload", "sensor_proxy"];

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The core the process runs on, when pinning it succeeded.
    pub pinned_cpu: Option<usize>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            pinned_cpu: None,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = num()?,
                "--seconds" => args.seconds = num()?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(args)
    }
}

/// Row-wise argmax of `(n, classes)` logits; ties go to the first index,
/// as in `InferenceSession`.
pub fn argmax_rows(logits: &[f32], classes: usize) -> Vec<usize> {
    logits
        .chunks_exact(classes)
        .map(|row| {
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best
        })
        .collect()
}

/// An empty vector with room for `cap` items whose memory is already
/// written, so filling it during a window moves neither the timings nor
/// the peak resident set.
pub fn prefaulted<T: Clone>(cap: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(cap);
    v.resize(cap, fill);
    v.clear();
    v
}

/// Runs `setup` [`SETUP_REPS`] times, [`SETUP_GAP`] apart, dropping each
/// result before the next, and returns the last result with the
/// interquartile mean of the set-up times in reference seconds (see
/// [`hostclock`]). The first set-up is timed from `t0`, taken as `main`
/// starts measuring.
pub fn timed_setups<T>(
    t0: Instant,
    mut setup: impl FnMut() -> BenchResult<T>,
) -> BenchResult<(T, f64)> {
    let mut clock = HostClock::new(t0, SETUP_REPS);
    let mut last = None;
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        drop(last.take());
        if rep > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        clock.probe();
        let start = if rep == 0 { t0 } else { Instant::now() };
        last = Some(setup()?);
        secs.push(clock.ref_us(start, Instant::now()) / 1e6);
    }
    let mean = stats::interquartile_mean(secs).ok_or("no set-up ran")?;
    Ok((last.ok_or("no set-up ran")?, mean))
}

/// Pins the knobs the benchmark measures under, before any library call
/// reads them: one kernel thread, static kernel blocking, no fast-math.
fn pin_env() {
    std::env::set_var("LECA_THREADS", "1");
    for knob in ["LECA_AUTOTUNE", "LECA_FASTMATH"] {
        std::env::remove_var(knob);
    }
}

/// Pins the process to one core, the last it may run on, while it has a
/// single thread: the threads it starts later inherit the pin. The serving
/// worker, the load generator and the host clock's probes then share one
/// core, so the probes measure the core the work runs on. Returns the
/// core, or `None` when it could not be pinned (no `taskset`).
fn pin_to_one_core() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = last_cpu(allowed)?;
    let done = std::process::Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?;
    done.success().then_some(cpu)
}

/// The highest core of a kernel CPU list such as `0-3,8,10-11`.
fn last_cpu(list: &str) -> Option<usize> {
    list.trim().rsplit([',', '-']).next()?.trim().parse().ok()
}

fn main() {
    pin_env();
    let pinned_cpu = pin_to_one_core();
    if pinned_cpu.is_none() {
        eprintln!("leca-benchmark: could not pin to one core; host clock probes may miss the serving worker's core");
    }
    let t0 = Instant::now();
    let mut args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("leca-benchmark: {e}");
            std::process::exit(2);
        }
    };
    args.pinned_cpu = pinned_cpu;
    let result = match args.workload.as_str() {
        "sensor_proxy" => offline::run(&args, t0),
        "serve_overload" => serve::run(&args, t0),
        _ => unreachable!("workload validated by Args::parse"),
    };
    match result.and_then(|run| run.finish(&args)) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("leca-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload serve_overload --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, "serve_overload");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse("--workload nope").is_err());
        assert!(
            parse("--workload offline_tiny").is_err(),
            "dropped workload"
        );
        assert!(parse("--workload sensor_proxy --trace 2").is_err());
        assert!(parse("--workload sensor_proxy --seconds 0").is_err());
        assert!(parse("--workload sensor_proxy --seed").is_err());
    }

    #[test]
    fn the_last_allowed_cpu_is_read_from_a_cpu_list() {
        assert_eq!(last_cpu("0-1\n"), Some(1));
        assert_eq!(last_cpu(" 0"), Some(0));
        assert_eq!(last_cpu("0-3,8,10-11"), Some(11));
        assert_eq!(last_cpu("2,5"), Some(5));
        assert_eq!(last_cpu(""), None);
    }

    #[test]
    fn argmax_takes_the_first_maximum() {
        assert_eq!(argmax_rows(&[1.0, 3.0, 3.0, 0.0, 5.0, 1.0], 3), vec![1, 1]);
    }
}

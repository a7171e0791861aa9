//! Results of one run: metrics, the failure tally, provenance, and the
//! output the benchmark's contract asks for.

use crate::hostclock::HostClock;
use crate::stats::{self, Sample, Tally};
use crate::{Args, BenchResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Images per classify call in the closed-loop workloads, and the serving
/// tier's batch limit.
pub const BATCH: usize = 8;

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ips", "images/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("goodput_ips", "images/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric a traced run reports, with its unit. Layers a
/// workload does not exercise read 0.
pub fn per_layer_metrics() -> BenchResult<Vec<(String, &'static str)>> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit: &'static str| {
        if !out.iter().any(|(n, _)| *n == name) {
            out.push((name, unit));
        }
    };
    push("sensor.capture_us".into(), "us");
    push("core.encoder_us".into(), "us");
    push("core.decoder.upsample_us".into(), "us");
    let tiny = crate::offline::tiny_pipeline()?;
    let dn = tiny.decoder().dncnn();
    for i in 0..dn.len() {
        let name = dn.get(i).map_or("?", |l| l.name());
        push(format!("core.decoder.dncnn.{i}.{name}_us"), "us");
    }
    push("core.decoder.self_us".into(), "us");
    push("core.decoder.gflops".into(), "GFLOP/s");
    for p in [tiny, crate::offline::sensor_pipeline()?] {
        let net = p.backbone().net();
        for i in 0..net.len() {
            let name = net.get(i).map_or("?", |l| l.name());
            push(format!("nn.backbone.{i}.{name}_us"), "us");
        }
    }
    for (name, unit) in [
        ("core.quantized.logits_us", "us"),
        ("core.session.self_us", "us"),
        ("tensor.workspace.hit_rate", "ratio"),
        ("tensor.workspace.misses", "count"),
        ("tensor.workspace.bytes_resident", "bytes"),
        ("serve.submit_p50_us", "us"),
        ("serve.submit_p99_us", "us"),
        ("serve.batch_size_mean", "requests"),
        ("serve.batch_fill", "ratio"),
        ("serve.wait_p50_us", "us"),
        ("serve.useful_ratio", "ratio"),
        ("serve.shed_overload", "count"),
        ("serve.timed_out", "count"),
        ("serve.worker_failed", "count"),
        ("serve.retries", "count"),
        ("serve.generator_lag_p99_us", "us"),
        ("serve.trace_overhead_ratio", "ratio"),
        ("trace.stage_sum_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        push(name.into(), unit);
    }
    Ok(out)
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Run {
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<String, f64>,
    /// Workload parameters, as JSON values.
    params: Vec<(String, String)>,
    /// Extra record fields: quantile ranks, sample counts, checks.
    notes: Vec<(String, f64)>,
    tally: Tally,
    /// Sheds and timeouts are the served outcome of an overload
    /// workload, not failed operations.
    pub shedding_expected: bool,
    /// Broken invariants and failed self-checks.
    failures: Vec<String>,
}

impl Run {
    pub fn new() -> Self {
        Run::default()
    }

    pub fn param(&mut self, key: &str, value: impl std::fmt::Debug) {
        let v = format!("{value:?}");
        self.params.push((key.to_string(), v));
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.push((key.to_string(), value));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn add_tally(&mut self, t: Tally) {
        let s = &mut self.tally;
        s.attempted += t.attempted;
        s.correct += t.correct;
        s.wrong_class += t.wrong_class;
        s.shed += t.shed;
        s.timed_out += t.timed_out;
        s.worker_failed += t.worker_failed;
    }

    /// Records the end-to-end metrics of an untraced window from its raw
    /// samples, its length and its outcomes.
    pub fn window_e2e(&mut self, samples: &[Sample], window_s: f64, tally: Tally, setup_s: f64) {
        match stats::summarize(samples, window_s) {
            Some(s) => {
                self.e2e.insert("throughput_ips", s.throughput);
                self.e2e.insert("goodput_ips", s.goodput);
                self.e2e.insert("latency_p50_us", s.p50.value);
                self.e2e.insert("latency_p99_us", s.tail.value);
                self.note("latency_tail_quantile", s.tail.q);
                self.note("latency_tail_samples", s.tail.n as f64);
            }
            None => self.fail(format!(
                "{} latency samples in {window_s} s: too few for a tail with {} beyond it",
                samples.len(),
                stats::TAIL_MIN_BEYOND
            )),
        }
        self.e2e.insert("setup_s", setup_s);
        self.note("latency_samples", samples.len() as f64);
        self.note("window_s", window_s);
        self.note("fail_ratio", tally.fail_ratio());
        self.add_tally(tally);
    }

    /// Notes how the window's reference time relates to its wall time: the
    /// wall length, the wall-clock throughput and the host's median
    /// slowness over the window's probes.
    pub fn host_clock(&mut self, clock: &HostClock, wall_s: f64) {
        self.note("wall_window_s", wall_s);
        self.note("wall_throughput_ips", self.tally.correct as f64 / wall_s);
        self.note("host_slowness_median", clock.median_slowness());
        self.note("host_probes", clock.probes() as f64);
    }

    /// Records the process's peak resident set so far. Called as the
    /// measured window ends: buffers the report builds afterwards grow with
    /// the number of replies, not with the system under test. `harness_bytes`
    /// is what the window's own sample buffers hold; it is recorded as a
    /// note, so the figure's share that is the benchmark's is known.
    pub fn mark_peak_rss(&mut self, harness_bytes: usize) {
        self.note(
            "harness_buffer_mb",
            harness_bytes as f64 / (1024.0 * 1024.0),
        );
        match peak_rss_mb() {
            Ok(mb) => {
                self.e2e.insert("peak_rss_mb", mb);
            }
            Err(e) => self.fail(format!("peak RSS unreadable: {e}")),
        }
    }

    /// Failed operations as the result line counts them.
    fn failed(&self) -> u64 {
        let t = &self.tally;
        if self.shedding_expected {
            t.wrong_class + t.worker_failed
        } else {
            t.failures()
        }
    }

    /// Prints the report and writes the record. Returns whether every
    /// output was correct and every invariant held.
    pub fn finish(mut self, args: &Args) -> BenchResult<bool> {
        if self.tally.wrong_class > 0 {
            let n = self.tally.wrong_class;
            self.fail(format!(
                "{n} images classified differently from their reference"
            ));
        }
        if !self.tally.balanced() {
            self.fail(format!("outcomes do not add up: {:?}", self.tally));
        }
        let metrics: Vec<(String, f64, &str)> = if args.trace {
            let list = per_layer_metrics()?;
            for name in self.layers.keys() {
                if !list.iter().any(|(n, _)| n == name) {
                    self.failures
                        .push(format!("layer metric {name} is not in the list"));
                }
            }
            list.into_iter()
                .map(|(n, u)| {
                    let v = self.layers.get(&n).copied().unwrap_or(0.0);
                    (n, v, u)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    (
                        n.to_string(),
                        self.e2e.get(n).copied().unwrap_or(f64::NAN),
                        u,
                    )
                })
                .collect()
        };
        if let Some((n, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            self.failures.push(format!("metric {n} was not measured"));
        }
        let correct = self.failures.is_empty();

        println!(
            "workload {} seed {} trace {}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        for (n, v, u) in &metrics {
            println!("  {n:<40} {v:>16.4} {u}");
        }
        println!(
            "  {:<40} {:>16.6} ratio",
            "fail_ratio",
            self.tally.fail_ratio()
        );
        for (k, v) in &self.notes {
            println!("  ({k} = {v})");
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }

        let record = self.record(args, &metrics, correct);
        let path = out_path(args, "json");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, &record)?;
        println!("record: {}", path.display());

        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.attempted.max(1),
            self.failed()
        );
        for (i, (n, v, u)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            );
        }
        line.push_str("}}");
        println!("{line}");
        Ok(correct)
    }

    fn record(&self, args: &Args, metrics: &[(String, f64, &str)], correct: bool) -> String {
        let mut s = String::from("{\n");
        for (k, v) in provenance(args) {
            let _ = writeln!(s, "  \"{k}\": {v},");
        }
        s.push_str("  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": {v}");
        }
        s.push_str("},\n  \"metrics\": {");
        for (i, (n, v, u)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\n    \"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            );
        }
        s.push_str("\n  },\n  \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": {}", json_num(*v));
        }
        let t = &self.tally;
        let _ = write!(
            s,
            "}},\n  \"tally\": {{\"attempted\": {}, \"correct\": {}, \"wrong_class\": {}, \
             \"shed\": {}, \"timed_out\": {}, \"worker_failed\": {}, \"fail_ratio\": {}}},\n",
            t.attempted,
            t.correct,
            t.wrong_class,
            t.shed,
            t.timed_out,
            t.worker_failed,
            json_num(t.fail_ratio())
        );
        let failures: Vec<String> = self.failures.iter().map(|f| format!("{f:?}")).collect();
        let _ = write!(
            s,
            "  \"failures\": [{}],\n  \"correct\": {correct}\n}}\n",
            failures.join(", ")
        );
        s
    }
}

/// A JSON number, or `null` for a value that is not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Where a run's output files go: `benchmark/out/<workload>-seed<n>-trace<t>.<ext>`.
pub fn out_path(args: &Args, ext: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{}-seed{}-trace{}.{ext}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ))
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Commit, date, CPU, backend, threads, cores, seed: as `(key, JSON value)`.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let q = |s: &str| format!("{s:?}");
    // Only ask git inside a repository checkout: elsewhere it would search
    // the parent directories.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = std::path::Path::new(root)
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .current_dir(root)
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", q(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("commit", q(&commit)),
        ("date_utc", q(&utc_now())),
        ("cpu_features", q(leca_tensor::backend::cpu_features())),
        ("backend", q(leca_tensor::backend::active().name())),
        (
            "leca_threads",
            leca_tensor::parallel::num_threads().to_string(),
        ),
        ("nproc", nproc.to_string()),
        (
            "pinned_cpu",
            args.pinned_cpu.map_or("null".into(), |c| c.to_string()),
        ),
        ("ref_kernel_ns", crate::hostclock::REF_KERNEL_NS.to_string()),
    ]
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (y, m, d) = civil_from_days(days as i64);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Days since 1970-01-01 to a proleptic Gregorian date (Hinnant's
/// algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_convert() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        assert_eq!(civil_from_days(20_742), (2026, 10, 16));
    }

    /// The metric names the code reports are exactly those BENCHMARK.json
    /// declares, in the same order and with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).unwrap();
            let body = &json[start..];
            let body = &body[..body.find(']').unwrap()];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).unwrap();
                        let rest = &obj[at + f.len() + 2..];
                        let rest = &rest[rest.find('"').unwrap() + 1..];
                        rest[..rest.find('"').unwrap()].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .unwrap()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layers);
        let workloads: Vec<String> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .take(crate::WORKLOADS.len())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "null");
    }
}

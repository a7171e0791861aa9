//! The open-loop serving workload, `serve_overload`.
//!
//! One generator thread sends single-image requests on an absolute
//! periodic schedule, round-robin over four tenants (two f32, two int8),
//! to a one-shard `leca-serve` service. Each request is timed from its due
//! time to the moment its reply is received, so a stalled generator or a
//! growing queue shows up in the latency of every later request.
//!
//! `Ticket::wait_for` consumes the ticket, so replies cannot be polled.
//! One collector thread per tenant blocks on that tenant's tickets in
//! send order instead; the worker answers a tenant's requests in that
//! order, so a reply is stamped as soon as its collector wakes. The
//! largest gap between a collector's wake-up and its next wait bounds how
//! late a stamp can be, and is reported.

use crate::hostclock::HostClock;
use crate::offline::{tiny_layer_table, tiny_pipeline};
use crate::report::{Run, BATCH};
use crate::stats::{self, Sample, Tally};
use crate::trace::{Tracer, ROOT};
use crate::{prefaulted, timed_setups, Args, BenchResult};
use leca_core::{InferenceSession, Precision};
use leca_serve::{MetricsSnapshot, Reply, ServeConfig, ServeError, Service, Ticket};
use leca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: u32 = 4;
const INT8_TENANTS: [u32; 2] = [2, 3];
const POOL: usize = 256;
const SAMPLE: [usize; 4] = [1, 3, 16, 16];
/// A reply that takes longer than this is reported lost.
const HANG: Duration = Duration::from_secs(30);
/// Length of the traced run's per-layer table of the served pipeline.
const LAYER_TABLE_SECONDS: f64 = 5.0;
/// The generator probes the host clock before every this many requests
/// (every 20 ms at [`RATE_RPS`]); a probe takes ~80 us of the shared core.
const PROBE_EVERY: usize = 100;

/// Offered rate over all tenants: above one shard's batched capacity, about
/// 1.3× the ~3.9k images/s it serves pinned to one core of a 2-core x86-64
/// host, so about a quarter of the requests is shed.
const RATE_RPS: f64 = 5_000.0;
/// Per-request deadline: well above a full queue's drain time (~15–40 ms
/// there), so the excess is shed at admission rather than timed out.
const DEADLINE_US: u64 = 100_000;
/// Goodput latency limit: half the deadline, about twice a full queue's
/// drain time. A reply between the limit and the deadline is correct but
/// too late to count, so goodput falls below throughput once queueing
/// delay grows, before the service starts timing requests out.
const LIMIT_US: f64 = 50_000.0;

fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_batch: BATCH,
        queue_cap: 64,
        deadline_us: DEADLINE_US,
        max_tenants: TENANTS,
        warm_shape: Some(SAMPLE.to_vec()),
        default_precision: Precision::F32,
        tenant_precision: INT8_TENANTS.iter().map(|&t| (t, Precision::Int8)).collect(),
        ..ServeConfig::default()
    }
}

/// The fixed int8 calibration batch (part of set-up, not of the inputs).
fn calibration_batch() -> Tensor {
    let mut rng = StdRng::seed_from_u64(0xca1b);
    Tensor::rand_uniform(&[BATCH, 3, 16, 16], 0.0, 1.0, &mut rng)
}

fn session() -> InferenceSession<'static> {
    let mut s = InferenceSession::owning(tiny_pipeline().expect("tiny pipeline builds"));
    s.enable_int8(&calibration_batch())
        .expect("int8 calibration of the tiny pipeline");
    s
}

fn precision(tenant: u32) -> Precision {
    if INT8_TENANTS.contains(&tenant) {
        Precision::Int8
    } else {
        Precision::F32
    }
}

/// Sends one request with a deadline long enough to outlast a worker's
/// warm-up, and waits for its verdict.
fn probe(service: &Service, tenant: u32, x: &Arc<Tensor>) -> BenchResult<()> {
    service
        .submit_with_deadline(tenant, Arc::clone(x), HANG.as_micros() as u64)?
        .wait_for(HANG)
        .ok_or("warm-up request lost")??;
    Ok(())
}

/// Starts the service and waits for one reply per tenant, so the worker
/// is warm at both precisions.
fn start() -> BenchResult<Service> {
    let service = Service::start(serve_config(), session)?;
    let x = Arc::new(Tensor::zeros(&SAMPLE));
    for t in 0..TENANTS {
        probe(&service, t, &x)?;
    }
    Ok(service)
}

/// The absolute send schedule: request `i` falls due `i` periods after
/// `start` and goes to tenant `i mod TENANTS` with payload `i mod POOL`.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    start: Instant,
    period_ns: f64,
}

impl Schedule {
    fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * self.period_ns) as u64
    }

    fn at(&self, ns: u64) -> Instant {
        self.start + Duration::from_nanos(ns)
    }

    /// Nanoseconds from `start` to `t` (0 before it).
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }
}

fn tenant(i: usize) -> u32 {
    (i % TENANTS as usize) as u32
}

/// Whether request `i`'s submit call is timed in a traced run.
fn traced(trace: bool, i: usize) -> bool {
    trace && i % 2 == 1
}

/// A traced request as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    /// How late the submit call began after the request fell due.
    lag_ns: u32,
    /// How long the submit call took; timed only when [`traced`].
    submit_ns: u32,
    /// `Ticket::id`, or `None` when admission refused the request.
    id: Option<u64>,
}

/// What became of one request, kept to 8 bytes: the window holds one per
/// offered request. Tenant `t`'s `k`-th request is request
/// `k * TENANTS + t`, and its collector writes slot `k` of that tenant's
/// vector, so a slot needs no request index.
#[derive(Debug, Clone, Copy)]
struct Fate {
    /// From the request's due time to its reply, saturating at ~4.3 s
    /// (past the deadline, so such a reply is a failure either way).
    lat_ns: u32,
    outcome: Outcome,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Refused at admission: no reply to wait for.
    Refused,
    /// A class that does not fit in a byte reads as `u8::MAX`, which is
    /// no class of the served model, so it fails the reference check.
    Verdict {
        class: u8,
        batch: u8,
    },
    TimedOut,
    Failed,
    /// No reply within [`HANG`].
    Lost,
}

impl Outcome {
    fn of(reply: Option<Reply>) -> Self {
        let byte = |v: usize| u8::try_from(v).unwrap_or(u8::MAX);
        match reply {
            Some(Ok(v)) => Outcome::Verdict {
                class: byte(v.class),
                batch: byte(v.batch_size),
            },
            Some(Err(ServeError::TimedOut { .. })) => Outcome::TimedOut,
            Some(Err(_)) => Outcome::Failed,
            None => Outcome::Lost,
        }
    }
}

struct OpenLoop {
    sched: Schedule,
    offered: usize,
    /// Requests refused with `Overloaded`, and with any other error.
    refused_overloaded: u64,
    refused_other: u64,
    /// One record per request, kept only in a traced run.
    sent: Vec<Sent>,
    /// One vector of request fates per tenant collector.
    fates: Vec<Vec<Fate>>,
    /// The window, from the first send to the last reply, in nanoseconds
    /// after the schedule start.
    start_ns: u64,
    end_ns: u64,
    /// Bound on how late a reply was stamped (see [`collect`]).
    collector_late_us: f64,
    /// Probed by the generator every [`PROBE_EVERY`] requests; its origin
    /// is the schedule start.
    clock: HostClock,
}

impl OpenLoop {
    /// Bytes the window's per-request records take.
    fn buffer_bytes(&self) -> usize {
        let fates: usize = self.fates.iter().map(Vec::capacity).sum();
        self.sent.capacity() * std::mem::size_of::<Sent>() + fates * std::mem::size_of::<Fate>()
    }

    /// Every admitted request's index and fate.
    fn replies(&self) -> impl Iterator<Item = (usize, Fate)> + '_ {
        self.fates.iter().enumerate().flat_map(|(t, v)| {
            v.iter().enumerate().filter_map(move |(k, f)| {
                let i = k * TENANTS as usize + t;
                (f.outcome != Outcome::Refused).then_some((i, *f))
            })
        })
    }
}

/// Sends `rate × seconds` requests on the absolute schedule and collects
/// every reply. With `trace`, the submit call of every odd request is
/// timed, so traced and untraced requests share the window, and every
/// request is recorded for the span tree.
fn open_loop(
    service: &Service,
    seconds: f64,
    payloads: &[Arc<Tensor>],
    trace: bool,
) -> BenchResult<OpenLoop> {
    let total = (RATE_RPS * seconds) as usize;
    let mut sent = if trace {
        let filler = Sent {
            lag_ns: 0,
            submit_ns: 0,
            id: None,
        };
        prefaulted(total, filler)
    } else {
        Vec::new()
    };
    let refused = Fate {
        lat_ns: 0,
        outcome: Outcome::Refused,
    };
    let mut bufs: Vec<Vec<Fate>> = (0..TENANTS)
        .map(|_| vec![refused; total.div_ceil(TENANTS as usize)])
        .collect();
    let sched = Schedule {
        start: Instant::now() + Duration::from_millis(1),
        period_ns: 1e9 / RATE_RPS,
    };
    let mut clock = HostClock::new(sched.start, total / PROBE_EVERY + 1);
    let (mut refused_overloaded, mut refused_other) = (0u64, 0u64);
    let (mut start_ns, mut last_submit_ns) = (None, 0);
    let (fates, collector_late_us) = std::thread::scope(|scope| -> BenchResult<_> {
        let mut txs = Vec::new();
        let mut collectors = Vec::new();
        for buf in bufs.drain(..) {
            let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
            txs.push(tx);
            collectors.push(scope.spawn(move || collect(sched, rx, buf)));
        }
        for i in 0..total {
            if i % PROBE_EVERY == 0 {
                clock.probe();
            }
            let due = sched.at(sched.due_ns(i));
            wait_until(due);
            let tenant = tenant(i);
            let submit_start = Instant::now();
            let res = service.submit(tenant, Arc::clone(&payloads[i % payloads.len()]));
            let submit_end = if traced(trace, i) {
                Instant::now()
            } else {
                submit_start
            };
            let id = match res {
                Ok(ticket) => {
                    let id = ticket.id;
                    txs[tenant as usize].send((i, ticket))?;
                    Some(id)
                }
                Err(ServeError::Overloaded { .. }) => {
                    refused_overloaded += 1;
                    None
                }
                Err(_) => {
                    refused_other += 1;
                    None
                }
            };
            start_ns.get_or_insert(sched.ns(submit_start));
            last_submit_ns = sched.ns(submit_end);
            if trace {
                let ns = |d: Duration| u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
                sent.push(Sent {
                    lag_ns: ns(submit_start.saturating_duration_since(due)),
                    submit_ns: ns(submit_end - submit_start),
                    id,
                });
            }
        }
        drop(txs);
        let mut fates = Vec::with_capacity(collectors.len());
        let mut gap = 0.0f64;
        for c in collectors {
            let (f, g) = c.join().map_err(|_| "collector panicked")?;
            fates.push(f);
            gap = gap.max(g);
        }
        Ok((fates, gap))
    })?;
    let start_ns = start_ns.unwrap_or(0);
    let mut ol = OpenLoop {
        sched,
        offered: total,
        refused_overloaded,
        refused_other,
        sent,
        fates,
        start_ns,
        end_ns: last_submit_ns,
        collector_late_us,
        clock,
    };
    let last_reply_ns = ol
        .replies()
        .map(|(i, f)| sched.due_ns(i) + u64::from(f.lat_ns))
        .max();
    ol.end_ns = ol.end_ns.max(last_reply_ns.unwrap_or(0));
    Ok(ol)
}

/// Sleeps until `due`. It never spins: the generator shares its core with
/// the serving worker, and a request sent late is still timed from its
/// due time, with the lateness reported.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
}

/// Waits on each ticket of one tenant in send order.
///
/// A reply that was already delivered when its wait began may have
/// arrived any time after the previous stamp (or after the ticket
/// reached the collector); that interval bounds how late its stamp is,
/// and the largest such bound is returned with the replies.
fn collect(
    sched: Schedule,
    rx: mpsc::Receiver<(usize, Ticket)>,
    mut out: Vec<Fate>,
) -> (Vec<Fate>, f64) {
    let mut late_bound = Duration::ZERO;
    let mut prev = None;
    while let Ok((req, ticket)) = rx.recv() {
        let handed = Instant::now();
        let reply = ticket.wait_for(HANG);
        let at = Instant::now();
        if at - handed < Duration::from_micros(5) {
            let since = prev.map_or(handed, |p: Instant| p.max(handed));
            late_bound = late_bound.max(at - since);
        }
        prev = Some(at);
        let lat = sched.ns(at).saturating_sub(sched.due_ns(req));
        out[req / TENANTS as usize] = Fate {
            lat_ns: u32::try_from(lat).unwrap_or(u32::MAX),
            outcome: Outcome::of(reply),
        };
    }
    (out, late_bound.as_secs_f64() * 1e6)
}

/// Counter deltas over a window.
fn delta(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        submitted: b.submitted - a.submitted,
        admitted: b.admitted - a.admitted,
        completed: b.completed - a.completed,
        timed_out: b.timed_out - a.timed_out,
        worker_failed: b.worker_failed - a.worker_failed,
        invalid_input: b.invalid_input - a.invalid_input,
        shed_overload: b.shed_overload - a.shed_overload,
        shed_breaker: b.shed_breaker - a.shed_breaker,
        shed_shutdown: b.shed_shutdown - a.shed_shutdown,
        retries: b.retries - a.retries,
        worker_panics: b.worker_panics - a.worker_panics,
        session_rebuilds: b.session_rebuilds - a.session_rebuilds,
        batches: b.batches - a.batches,
        batched_requests: b.batched_requests - a.batched_requests,
        p50_us: 0,
        p99_us: 0,
        mean_us: 0.0,
    }
}

/// A snapshot taken once every delivered reply has been counted (the
/// worker bumps its counters just after it sets a reply).
fn settled(service: &Service) -> MetricsSnapshot {
    let give_up = Instant::now() + Duration::from_secs(1);
    loop {
        let m = service.metrics();
        if m.admitted == m.resolved() || Instant::now() > give_up {
            return m;
        }
        std::thread::yield_now();
    }
}

/// A correct reply: its latency, the batch it rode in, its precision and
/// whether its submit call was traced.
#[derive(Debug, Clone, Copy)]
struct Served {
    lat_us: f64,
    batch: usize,
    precision: Precision,
    traced: bool,
}

/// Outcomes of one open-loop window, checked against the references and
/// the service's own counters.
struct Scored {
    tally: Tally,
    /// Latencies in reference time (see [`HostClock`]).
    samples: Vec<Sample>,
    ref_window_s: f64,
    /// Correct replies, with their wall-clock latencies.
    served: Vec<Served>,
}

fn score(
    ol: &OpenLoop,
    d: &MetricsSnapshot,
    refs: &[[usize; 2]],
    limit_us: f64,
    trace: bool,
    run: &mut Run,
) -> Scored {
    let mut t = Tally {
        attempted: ol.offered as u64,
        shed: ol.refused_overloaded + ol.refused_other,
        ..Tally::default()
    };
    let mut samples = Vec::with_capacity(ol.offered);
    let mut served = Vec::with_capacity(ol.offered);
    let mut client_completed = 0u64;
    for (i, f) in ol.replies() {
        let lat = f64::from(f.lat_ns) / 1e3;
        let due_ns = ol.sched.due_ns(i);
        let ref_lat = ol.clock.ref_us_ns(due_ns, due_ns + u64::from(f.lat_ns));
        let mut sample = Sample {
            lat_us: ref_lat,
            correct: 0,
            good: 0,
        };
        match f.outcome {
            Outcome::Refused => {}
            Outcome::Lost => {
                t.worker_failed += 1;
                run.fail(format!("request {i} got no reply within {HANG:?}"));
            }
            Outcome::Verdict { class, batch } => {
                client_completed += 1;
                let p = precision(tenant(i));
                let expect = refs[i % refs.len()][usize::from(p == Precision::Int8)];
                if usize::from(class) == expect {
                    t.correct += 1;
                    served.push(Served {
                        lat_us: lat,
                        batch: usize::from(batch),
                        precision: p,
                        traced: traced(trace, i),
                    });
                    sample.correct = 1;
                    sample.good = u32::from(ref_lat <= limit_us);
                } else {
                    t.wrong_class += 1;
                }
                samples.push(sample);
            }
            Outcome::TimedOut => {
                t.timed_out += 1;
                samples.push(sample);
            }
            Outcome::Failed => {
                t.worker_failed += 1;
                samples.push(sample);
            }
        }
    }
    // The service's accounting invariants, and the client's view of them.
    let shed = d.shed_overload + d.shed_breaker + d.shed_shutdown;
    let checks = [
        (
            "admitted == completed + timed_out + worker_failed",
            d.admitted == d.resolved(),
        ),
        (
            "submitted == admitted + shed + invalid",
            d.submitted == d.admitted + shed + d.invalid_input,
        ),
        (
            "client submissions == service submissions",
            t.attempted == d.submitted,
        ),
        (
            "client overload refusals == shed_overload",
            ol.refused_overloaded == d.shed_overload,
        ),
        (
            "client verdicts == completed",
            client_completed == d.completed,
        ),
        ("client timeouts == timed_out", t.timed_out == d.timed_out),
    ];
    for (what, ok) in checks {
        if !ok {
            run.fail(format!("accounting: {what} does not hold ({d:?})"));
        }
    }
    Scored {
        tally: t,
        samples,
        ref_window_s: ol.clock.ref_us_ns(ol.start_ns, ol.end_ns) / 1e6,
        served,
    }
}

fn mean_latency<'a>(served: impl Iterator<Item = &'a Served>) -> f64 {
    let (sum, n) = served.fold((0.0, 0usize), |(s, n), r| (s + r.lat_us, n + 1));
    sum / n.max(1) as f64
}

/// Median time of `call` over 40 calls after 3 warm ones, microseconds.
fn median_us(mut call: impl FnMut() -> BenchResult<()>) -> BenchResult<f64> {
    let mut samples = Vec::with_capacity(40);
    for rep in 0..43 {
        let t = Instant::now();
        call()?;
        if rep >= 3 {
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    stats::sort(&mut samples);
    Ok(stats::nearest_rank(&samples, 0.5).map_or(0.0, |q| q.value))
}

/// Median classify time of a local session per (precision, batch size),
/// microseconds: the compute a served reply of that batch size paid. Also
/// returns the int8 engine's logits time for a full batch.
fn compute_table(
    s: &mut InferenceSession<'static>,
    payloads: &[Arc<Tensor>],
) -> BenchResult<([[f64; BATCH + 1]; 2], f64)> {
    let mut table = [[0.0; BATCH + 1]; 2];
    let mut preds = Vec::new();
    let batch = |b: usize| {
        let rows: Vec<&Tensor> = payloads[..b].iter().map(|a| a.as_ref()).collect();
        Tensor::concat0(&rows)
    };
    for (row, p) in table.iter_mut().zip([Precision::F32, Precision::Int8]) {
        for (b, cell) in row.iter_mut().enumerate().skip(1) {
            let x = batch(b)?;
            *cell = median_us(|| Ok(s.classify_batch_with(&x, &mut preds, p)?))?;
        }
    }
    let x = batch(BATCH)?;
    let int8_logits = median_us(|| {
        s.logits_int8(&x)?;
        Ok(())
    })?;
    Ok((table, int8_logits))
}

pub fn run(args: &Args, t0: Instant) -> BenchResult<Run> {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let payloads: Vec<Arc<Tensor>> = (0..POOL)
        .map(|_| Arc::new(Tensor::rand_uniform(&SAMPLE, 0.0, 1.0, &mut rng)))
        .collect();
    let (service, setup_s) = timed_setups(t0, start)?;

    // Per-image references at batch 1, on an identically built session.
    let mut local = session();
    let mut refs = Vec::with_capacity(POOL);
    let mut preds = Vec::new();
    for x in &payloads {
        local.classify_batch_with(x, &mut preds, Precision::F32)?;
        let f = preds[0];
        local.classify_batch_with(x, &mut preds, Precision::Int8)?;
        refs.push([f, preds[0]]);
    }
    let mut run = Run::new();
    let table = if args.trace {
        let spans = tiny_layer_table(args.seed, LAYER_TABLE_SECONDS, &mut run)?;
        spans.write_csv(&crate::report::out_path(args, "layers.spans.csv"))?;
        Some(compute_table(&mut local, &payloads)?)
    } else {
        None
    };
    drop(local);

    // Warm the reply slots and queues outside the window.
    for (i, x) in payloads.iter().take(32).enumerate() {
        probe(&service, i as u32 % TENANTS, x)?;
    }

    run.shedding_expected = true;
    run.param("rate_rps", RATE_RPS);
    run.param("deadline_us", DEADLINE_US);
    run.param("limit_us", LIMIT_US);
    run.param("tenants", "2 f32 + 2 int8, round robin");
    run.param("shards", 1);
    run.param("max_batch", BATCH);
    run.param("queue_cap", 64);
    run.param("linger_us", ServeConfig::default().linger_us);
    run.param("generator_threads", 1);

    let m0 = settled(&service);
    let ol = open_loop(&service, args.seconds as f64, &payloads, args.trace)?;
    run.mark_peak_rss(ol.buffer_bytes());
    let m1 = settled(&service);
    let d = delta(&m0, &m1);
    let sc = score(&ol, &d, &refs, LIMIT_US, args.trace, &mut run);
    run.window_e2e(&sc.samples, sc.ref_window_s, sc.tally, setup_s);
    run.host_clock(&ol.clock, (ol.end_ns - ol.start_ns) as f64 / 1e9);
    run.note("collector_late_bound_us", ol.collector_late_us);
    run.note("offered_requests", ol.offered as f64);
    let served = sc.served.len().max(1) as f64;
    let int8 = sc.served.iter().filter(|s| s.precision == Precision::Int8);
    run.note("served_int8_share", int8.count() as f64 / served);
    let mean_batch = sc.served.iter().map(|s| s.batch as f64).sum::<f64>() / served;
    run.note("served_batch_mean", mean_batch);
    let Some((table, int8_logits_us)) = table else {
        service.shutdown();
        return Ok(run);
    };
    run.layer("core.quantized.logits_us", int8_logits_us);

    // Every request becomes a span tree (request → submit) keyed by its
    // ticket id; only odd requests had their submit call timed.
    let sched = ol.sched;
    let mut tr = Tracer::new(sched.start, 2 * ol.sent.len() + 1);
    let (req_name, submit_name) = (tr.intern("serve.request"), tr.intern("serve.submit"));
    let mut done = vec![None; ol.sent.len()];
    for (i, f) in ol.replies() {
        done[i] = Some(sched.due_ns(i) + u64::from(f.lat_ns));
    }
    let mut submit_us = Vec::with_capacity(ol.sent.len());
    let mut lag_us = Vec::with_capacity(ol.sent.len());
    for (i, (s, end)) in ol.sent.iter().zip(&done).enumerate() {
        let id = s.id.unwrap_or(u64::MAX);
        let due = sched.due_ns(i);
        let submit_start = due + u64::from(s.lag_ns);
        let submit_end = submit_start + u64::from(s.submit_ns);
        let end = end.unwrap_or(submit_end);
        let root = tr.record(req_name, ROOT, id, sched.at(due), sched.at(end));
        if traced(true, i) {
            let (a, z) = (sched.at(submit_start), sched.at(submit_end));
            tr.record(submit_name, root, id, a, z);
            submit_us.push(f64::from(s.submit_ns) / 1e3);
        }
        lag_us.push(f64::from(s.lag_ns) / 1e3);
    }
    stats::sort(&mut submit_us);
    stats::sort(&mut lag_us);
    let median = |v: &[f64]| stats::nearest_rank(v, 0.5).map_or(0.0, |q| q.value);
    let tail = |v: &[f64]| stats::tail(v).map_or(0.0, |q| q.value);
    run.layer("serve.submit_p50_us", median(&submit_us));
    run.layer("serve.submit_p99_us", tail(&submit_us));
    run.layer("serve.generator_lag_p99_us", tail(&lag_us));
    run.layer("serve.batch_size_mean", mean_batch);
    run.layer("serve.batch_fill", mean_batch / BATCH as f64);
    let mut wait_us: Vec<f64> = sc
        .served
        .iter()
        .map(|s| s.lat_us - table[usize::from(s.precision == Precision::Int8)][s.batch])
        .collect();
    stats::sort(&mut wait_us);
    run.layer("serve.wait_p50_us", median(&wait_us));
    let useful = d.completed as f64 / d.admitted.max(1) as f64;
    run.layer("serve.useful_ratio", useful);
    run.layer("serve.shed_overload", d.shed_overload as f64);
    run.layer("serve.timed_out", d.timed_out as f64);
    run.layer("serve.worker_failed", d.worker_failed as f64);
    run.layer("serve.retries", d.retries as f64);
    let traced = mean_latency(sc.served.iter().filter(|s| s.traced));
    let untraced = mean_latency(sc.served.iter().filter(|s| !s.traced));
    run.layer("serve.trace_overhead_ratio", traced / untraced - 1.0);
    for (pi, name) in ["f32", "int8"].iter().enumerate() {
        run.note(&format!("compute_b1_{name}_us"), table[pi][1]);
        run.note(&format!("compute_b{BATCH}_{name}_us"), table[pi][BATCH]);
    }
    tr.write_csv(&crate::report::out_path(args, "spans.csv"))?;
    service.shutdown();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_map_back_to_their_requests() {
        let verdict = |class| Fate {
            lat_ns: 7,
            outcome: Outcome::Verdict { class, batch: 1 },
        };
        let refused = Fate {
            lat_ns: 0,
            outcome: Outcome::Refused,
        };
        // Ten requests over four tenants: tenant t holds t, t + 4, t + 8.
        let mut fates = vec![vec![refused; 3]; TENANTS as usize];
        fates[1][2] = verdict(9);
        fates[3][0] = verdict(3);
        fates[0][1] = Fate {
            lat_ns: 5,
            outcome: Outcome::TimedOut,
        };
        let ol = OpenLoop {
            sched: Schedule {
                start: Instant::now(),
                period_ns: 200_000.0,
            },
            offered: 10,
            refused_overloaded: 7,
            refused_other: 0,
            sent: Vec::new(),
            fates,
            start_ns: 0,
            end_ns: 0,
            collector_late_us: 0.0,
            clock: HostClock::new(Instant::now(), 0),
        };
        let mut got: Vec<(usize, Outcome)> = ol.replies().map(|(i, f)| (i, f.outcome)).collect();
        got.sort_by_key(|&(i, _)| i);
        assert_eq!(
            got,
            vec![
                (3, verdict(3).outcome),
                (4, Outcome::TimedOut),
                (9, verdict(9).outcome)
            ]
        );
        assert_eq!(std::mem::size_of::<Fate>(), 8);
    }

    #[test]
    fn an_oversized_class_fails_the_reference_check() {
        let v = leca_serve::Verdict {
            class: 300,
            worker: 0,
            batch_size: 8,
        };
        assert_eq!(
            Outcome::of(Some(Ok(v))),
            Outcome::Verdict {
                class: u8::MAX,
                batch: 8
            }
        );
        assert_eq!(Outcome::of(None), Outcome::Lost);
    }
}

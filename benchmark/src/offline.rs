//! The closed-loop workload `sensor_proxy`, driven from one thread, and
//! the staged per-layer tables.
//!
//! The untraced window times whole `InferenceSession` calls. A layer
//! table alternates those calls with staged calls on an identically built
//! pipeline (encoder, decoder upsample, each DnCNN layer, each backbone
//! layer), with a span around every call, and checks that the staged
//! logits equal the untraced ones bit for bit. `sensor_proxy` runs its
//! table as its traced run; the serve workload's traced run holds the
//! table of the `tiny_cnn` pipeline it serves.

use crate::hostclock::HostClock;
use crate::report::{Run, BATCH};
use crate::stats::{self, Sample, Tally};
use crate::trace::{Tracer, ROOT};
use crate::{argmax_rows, timed_setups, Args, BenchResult};
use leca_core::deploy::{program_sensor, sensor_encode};
use leca_core::{InferenceSession, LecaConfig, LecaPipeline, Modality, Precision};
use leca_nn::backbone::{resnet_proxy, tiny_cnn};
use leca_nn::{Layer, Mode};
use leca_sensor::LecaSensor;
use leca_tensor::{PooledTensor, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Seed of the random-init model weights (fixed: the model is the program
/// under test; only the inputs come from `--seed`).
const MODEL_SEED: u64 = 7;
/// Batches in the cycled input pool.
const POOL_BATCHES: usize = 32;
/// Frames per sensor batch pool (8 batches of 8 frames).
const SENSOR_POOL_BATCHES: usize = 8;
/// Edge length of the sensor workload's RGB frames.
const SENSOR_HW: usize = 32;

/// Per-call latency limit for goodput on `sensor_proxy`. A closed loop has
/// no queue, so the limit sits about twice above a call's typical latency:
/// it only cuts stalled calls, and goodput equals throughput unless the
/// program stalls.
const SENSOR_LIMIT_US: f64 = 100_000.0;
/// Most calls per second the sample buffers are sized for: about twice the
/// rate measured on a 2-core x86-64 host (~400 and ~40 calls/s), so the
/// harness's own buffers stay a small share of `peak_rss_mb`.
const TINY_MAX_CALLS_PER_S: f64 = 800.0;
const SENSOR_MAX_CALLS_PER_S: f64 = 80.0;

pub fn tiny_pipeline() -> BenchResult<LecaPipeline> {
    let cfg = LecaConfig::new(2, 4, 3.0)?;
    let mut rng = StdRng::seed_from_u64(0);
    Ok(LecaPipeline::new(
        &cfg,
        Modality::Soft,
        tiny_cnn(4, &mut rng),
        MODEL_SEED,
    )?)
}

pub fn sensor_pipeline() -> BenchResult<LecaPipeline> {
    let cfg = LecaConfig::new(2, 4, 3.0)?;
    let mut rng = StdRng::seed_from_u64(1);
    Ok(LecaPipeline::new(
        &cfg,
        Modality::Soft,
        resnet_proxy(10, &mut rng),
        MODEL_SEED,
    )?)
}

/// A seeded pool of `n` input batches of `shape`.
fn input_pool(seed: u64, n: usize, shape: &[usize]) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tensor::rand_uniform(shape, 0.0, 1.0, &mut rng))
        .collect()
}

/// Outcome of one closed-loop window.
struct Window {
    samples: Vec<Sample>,
    tally: Tally,
    start: Instant,
    limit_us: f64,
}

impl Window {
    fn new(kind: Offline, seconds: f64) -> Self {
        // The tiny pipeline runs only in layer tables, which report no
        // goodput.
        let (limit_us, per_s) = match kind {
            Offline::Tiny => (f64::INFINITY, TINY_MAX_CALLS_PER_S),
            Offline::Sensor => (SENSOR_LIMIT_US, SENSOR_MAX_CALLS_PER_S),
        };
        Window {
            samples: crate::prefaulted((seconds * per_s) as usize, Sample::default()),
            tally: Tally::default(),
            start: Instant::now(),
            limit_us,
        }
    }

    fn push(&mut self, lat_us: f64, expect: &[usize], got: &[usize]) {
        let ok = expect.iter().zip(got).filter(|(a, b)| a == b).count();
        let n = expect.len() as u64;
        self.samples.push(Sample {
            lat_us,
            correct: ok as u32,
            good: if lat_us <= self.limit_us {
                ok as u32
            } else {
                0
            },
        });
        self.tally.attempted += n;
        self.tally.correct += ok as u64;
        self.tally.wrong_class += n - ok as u64;
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn mean_us(&self) -> f64 {
        self.samples.iter().map(|s| s.lat_us).sum::<f64>() / self.samples.len().max(1) as f64
    }

    fn buffer_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<Sample>()
    }
}

/// Span names of a staged pass, interned before the measured window.
struct StageNames {
    batch: u16,
    capture: u16,
    encoder: u16,
    decoder: u16,
    upsample: u16,
    dncnn: Vec<u16>,
    backbone: Vec<u16>,
}

impl StageNames {
    fn new(tr: &mut Tracer, p: &LecaPipeline) -> Self {
        let dn = p.decoder().dncnn();
        let dncnn = (0..dn.len())
            .map(|i| {
                let name = dn.get(i).map_or("?", |l| l.name());
                tr.intern(&format!("core.decoder.dncnn.{i}.{name}"))
            })
            .collect();
        let net = p.backbone().net();
        let backbone = (0..net.len())
            .map(|i| {
                let name = net.get(i).map_or("?", |l| l.name());
                tr.intern(&format!("nn.backbone.{i}.{name}"))
            })
            .collect();
        StageNames {
            batch: tr.intern("bench.batch"),
            capture: tr.intern("sensor.capture"),
            encoder: tr.intern("core.encoder"),
            decoder: tr.intern("core.decoder"),
            upsample: tr.intern("core.decoder.upsample"),
            dncnn,
            backbone,
        }
    }
}

/// A pipeline driven one layer call at a time, with a span around each.
struct Staged {
    p: LecaPipeline,
    ws: Workspace,
    names: StageNames,
}

impl Staged {
    fn new(p: LecaPipeline, tr: &mut Tracer) -> Self {
        let names = StageNames::new(tr, &p);
        Staged {
            p,
            ws: Workspace::new(),
            names,
        }
    }

    /// Encoder → decoder → backbone, as `LecaPipeline::forward_ws` does.
    fn logits(
        &mut self,
        x: &Tensor,
        tr: &mut Tracer,
        root: u32,
        id: u64,
    ) -> BenchResult<PooledTensor> {
        let s = tr.begin(self.names.encoder, root, id);
        let ofmap = self.p.encoder_mut().forward_ws(x, Mode::Eval, &self.ws)?;
        tr.end(s);
        self.decode_classify(&ofmap, tr, root, id)
    }

    /// Decoder → backbone, as `InferenceSession::classify_ofmaps` does.
    fn decode_classify(
        &mut self,
        ofmap: &Tensor,
        tr: &mut Tracer,
        root: u32,
        id: u64,
    ) -> BenchResult<PooledTensor> {
        let ws = &self.ws;
        let n = &self.names;
        let d = tr.begin(n.decoder, root, id);
        let s = tr.begin(n.upsample, d, id);
        let up = self
            .p
            .decoder_mut()
            .upsample_mut()
            .forward_ws(ofmap, Mode::Eval, ws)?;
        tr.end(s);
        let dn = self.p.decoder_mut().dncnn_mut();
        let mut cur: Option<PooledTensor> = None;
        for (i, &name) in n.dncnn.iter().enumerate() {
            let layer = dn.get_mut(i).ok_or("dncnn layer vanished")?;
            let s = tr.begin(name, d, id);
            let next = layer.forward_ws(cur.as_deref().unwrap_or(&up), Mode::Eval, ws)?;
            tr.end(s);
            cur = Some(next);
        }
        let residual = cur.ok_or("empty dncnn")?;
        // The decoder's own work: residual add and clamp to [0, 1].
        let mut pre = ws.take(up.shape());
        up.add_into(&residual, &mut pre)?;
        drop(up);
        drop(residual);
        pre.map_inplace(|v| v.clamp(0.0, 1.0));
        tr.end(d);
        let net = self.p.backbone_mut().net_mut();
        let mut cur = pre;
        for (i, &name) in n.backbone.iter().enumerate() {
            let layer = net.get_mut(i).ok_or("backbone layer vanished")?;
            let s = tr.begin(name, root, id);
            let next = layer.forward_ws(&cur, Mode::Eval, ws)?;
            tr.end(s);
            cur = next;
        }
        Ok(cur)
    }
}

/// Floating-point work of the decoder for one batch of `ofmap_shape`,
/// from layer shapes: 2 flops per multiply-accumulate.
fn decoder_flops(p: &LecaPipeline, ofmap_shape: &[usize]) -> f64 {
    let (n, h, w) = (ofmap_shape[0], ofmap_shape[2], ofmap_shape[3]);
    let up = p.decoder().upsample();
    let k = up.kernel();
    let (oh, ow) = (h * up.stride(), w * up.stride());
    let wshape = up.weight().shape(); // (in, out, k, k)
    let mut flops = 2.0 * (n * h * w * wshape[0] * wshape[1] * k * k) as f64;
    let dn = p.decoder().dncnn();
    for i in 0..dn.len() {
        if let Some(conv) = dn
            .get(i)
            .and_then(|l| l.as_any())
            .and_then(|a| a.downcast_ref::<leca_nn::layers::Conv2d>())
        {
            let ws = conv.weight().shape(); // (out, in, k, k)
            flops += 2.0 * (n * oh * ow * ws[0] * ws[1] * ws[2] * ws[3]) as f64;
        }
    }
    flops
}

/// Which pipeline a closed loop drives: `tiny_cnn` on image batches, or
/// `resnet_proxy` on sensor captures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Offline {
    Tiny,
    Sensor,
}

/// The untraced session-side state of one closed loop.
struct Setup {
    session: InferenceSession<'static>,
    sensor: Option<LecaSensor>,
}

fn setup(kind: Offline) -> BenchResult<Setup> {
    match kind {
        Offline::Tiny => {
            let mut session = InferenceSession::owning(tiny_pipeline()?);
            session.warm_up(&[BATCH, 3, 16, 16])?;
            Ok(Setup {
                session,
                sensor: None,
            })
        }
        Offline::Sensor => {
            let p = sensor_pipeline()?;
            let sensor = program_sensor(p.encoder(), SENSOR_HW, SENSOR_HW)?;
            let mut session = InferenceSession::owning(p);
            let zeros = Tensor::zeros(&ofmap_batch_shape(&sensor));
            let mut preds = Vec::new();
            for _ in 0..2 {
                session.classify_ofmaps(&zeros, &mut preds)?;
            }
            Ok(Setup {
                session,
                sensor: Some(sensor),
            })
        }
    }
}

/// Inputs of one run, from `--seed`.
struct Inputs {
    /// Offline: image batches. Sensor: RGB frames, `BATCH` per batch.
    batches: Vec<Tensor>,
    frames: Vec<Vec<Tensor>>,
    frame_seeds: Vec<Vec<u64>>,
}

fn inputs(kind: Offline, seed: u64) -> Inputs {
    match kind {
        Offline::Tiny => Inputs {
            batches: input_pool(seed, POOL_BATCHES, &[BATCH, 3, 16, 16]),
            frames: Vec::new(),
            frame_seeds: Vec::new(),
        },
        Offline::Sensor => {
            let frames = (0..SENSOR_POOL_BATCHES)
                .map(|b| input_pool(seed ^ ((b as u64) << 32), BATCH, &[3, SENSOR_HW, SENSOR_HW]))
                .collect();
            let frame_seeds = (0..SENSOR_POOL_BATCHES)
                .map(|b| {
                    (0..BATCH)
                        .map(|j| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (b * BATCH + j) as u64)
                        .collect()
                })
                .collect();
            Inputs {
                batches: Vec::new(),
                frames,
                frame_seeds,
            }
        }
    }
}

/// Captures one batch of frames through the sensor into `out`
/// (`[BATCH, n_ch, h/2, w/2]`), timing each frame into `per_frame`.
fn capture_batch(
    sensor: &LecaSensor,
    frames: &[Tensor],
    seeds: &[u64],
    out: &mut Tensor,
    mut per_frame: impl FnMut(Instant, Instant),
) -> BenchResult<()> {
    let per = out.len() / BATCH;
    let dst = out.as_mut_slice();
    for (j, (img, &s)) in frames.iter().zip(seeds).enumerate() {
        let t = Instant::now();
        let ofmap = sensor_encode(sensor, img, true, s)?;
        per_frame(t, Instant::now());
        dst[j * per..(j + 1) * per].copy_from_slice(ofmap.as_slice());
    }
    Ok(())
}

/// Per-image reference classes: batch-1 allocating forwards on an
/// identically built pipeline.
fn references(
    kind: Offline,
    inp: &Inputs,
    setup: &mut Setup,
) -> BenchResult<(Vec<Vec<usize>>, Vec<Tensor>)> {
    let mut refs = Vec::new();
    let mut ofmaps = Vec::new();
    match kind {
        Offline::Tiny => {
            let mut p = tiny_pipeline()?;
            for x in &inp.batches {
                let mut r = Vec::with_capacity(BATCH);
                for i in 0..BATCH {
                    let xi = x.slice0(i, 1)?;
                    r.extend(argmax_rows(p.forward(&xi, Mode::Eval)?.as_slice(), 4));
                }
                refs.push(r);
            }
        }
        Offline::Sensor => {
            let sensor = setup.sensor.as_ref().ok_or("sensor not programmed")?;
            let mut p = sensor_pipeline()?;
            let shape = ofmap_batch_shape(sensor);
            for (frames, seeds) in inp.frames.iter().zip(&inp.frame_seeds) {
                let mut batch = Tensor::zeros(&shape);
                capture_batch(sensor, frames, seeds, &mut batch, |_, _| {})?;
                let mut r = Vec::with_capacity(BATCH);
                for i in 0..BATCH {
                    let oi = batch.slice0(i, 1)?;
                    let img = p.decode(&oi, Mode::Eval)?;
                    let logits = p.backbone_mut().forward(&img, Mode::Eval)?;
                    r.extend(argmax_rows(logits.as_slice(), 10));
                }
                refs.push(r);
                ofmaps.push(batch);
            }
        }
    }
    Ok((refs, ofmaps))
}

fn ofmap_batch_shape(sensor: &LecaSensor) -> [usize; 4] {
    [BATCH, sensor.geometry().n_ch, SENSOR_HW / 2, SENSOR_HW / 2]
}

/// One offline run's untraced side: the session, its inputs and a
/// reusable ofmap batch for the sensor path.
struct Bench {
    kind: Offline,
    st: Setup,
    inp: Inputs,
    ofmaps: Option<Tensor>,
}

impl Bench {
    fn pool_len(&self) -> usize {
        self.inp.batches.len().max(self.inp.frames.len())
    }

    /// One untraced call on pool batch `b`; returns when it started and
    /// ended. Sensor: capture of the batch's frames, then classify.
    fn call(&mut self, b: usize, preds: &mut Vec<usize>) -> BenchResult<(Instant, Instant)> {
        let Bench {
            kind,
            st: Setup { session, sensor },
            inp,
            ofmaps,
        } = self;
        let t = Instant::now();
        match kind {
            Offline::Tiny => session.classify_batch_with(&inp.batches[b], preds, Precision::F32)?,
            Offline::Sensor => {
                let (sensor, ofmaps) = (sensor.as_ref(), ofmaps.as_mut());
                let (sensor, ofmaps) = sensor.zip(ofmaps).ok_or("sensor not programmed")?;
                capture_batch(
                    sensor,
                    &inp.frames[b],
                    &inp.frame_seeds[b],
                    ofmaps,
                    |_, _| {},
                )?;
                session.classify_ofmaps(ofmaps, preds)?;
            }
        }
        Ok((t, Instant::now()))
    }
}

/// The traced side: a staged copy of the pipeline, its spans, and the
/// untraced logits it must reproduce.
struct Traced {
    staged: Staged,
    tr: Tracer,
    expect: Vec<Vec<f32>>,
    classes: usize,
}

impl Traced {
    fn new(bench: &mut Bench, ofmaps: &[Tensor]) -> BenchResult<Self> {
        let mut tr = Tracer::new(Instant::now(), 1 << 20);
        let (pipeline, classes) = match bench.kind {
            Offline::Sensor => (sensor_pipeline()?, 10),
            _ => (tiny_pipeline()?, 4),
        };
        let mut staged = Staged::new(pipeline, &mut tr);
        let session = &mut bench.st.session;
        let expect = match bench.kind {
            Offline::Tiny => bench
                .inp
                .batches
                .iter()
                .map(|x| Ok(session.logits(x)?.as_slice().to_vec()))
                .collect::<BenchResult<_>>()?,
            // `classify_ofmaps` exposes no logits; its decode + backbone
            // are held to the allocating forward path bit for bit by the
            // workspace determinism suites.
            Offline::Sensor => ofmaps
                .iter()
                .map(|o| {
                    let img = staged.p.decode(o, Mode::Eval)?;
                    let logits = staged.p.backbone_mut().forward(&img, Mode::Eval)?;
                    Ok(logits.as_slice().to_vec())
                })
                .collect::<BenchResult<_>>()?,
        };
        let mut t = Traced {
            staged,
            tr,
            expect,
            classes,
        };
        // Warm the staged pipeline's own workspace outside the window.
        for b in 0..2 {
            t.call(bench, b, 0)?;
        }
        t.tr.clear();
        Ok(t)
    }

    /// One staged call on pool batch `b` under a root span; returns its
    /// latency in microseconds, whether its logits match the untraced ones,
    /// and its classes.
    fn call(
        &mut self,
        bench: &mut Bench,
        b: usize,
        id: u64,
    ) -> BenchResult<(f64, bool, Vec<usize>)> {
        let Traced {
            staged, tr, expect, ..
        } = self;
        let root = tr.begin(staged.names.batch, ROOT, id);
        let (same, preds) = match bench.kind {
            Offline::Tiny => {
                let logits = staged.logits(&bench.inp.batches[b], tr, root, id)?;
                let same = logits.as_slice() == expect[b].as_slice();
                (same, argmax_rows(logits.as_slice(), self.classes))
            }
            Offline::Sensor => {
                let sensor = bench.st.sensor.as_ref();
                let ofmaps = bench.ofmaps.as_mut();
                let (sensor, ofmaps) = sensor.zip(ofmaps).ok_or("sensor not programmed")?;
                let mut spans = [(Instant::now(), Instant::now()); BATCH];
                let mut k = 0;
                let (frames, seeds) = (&bench.inp.frames[b], &bench.inp.frame_seeds[b]);
                capture_batch(sensor, frames, seeds, ofmaps, |a, z| {
                    spans[k] = (a, z);
                    k += 1;
                })?;
                for &(a, z) in &spans[..k] {
                    tr.record(staged.names.capture, root, id, a, z);
                }
                let logits = staged.decode_classify(ofmaps, tr, root, id)?;
                let same = logits.as_slice() == expect[b].as_slice();
                (same, argmax_rows(logits.as_slice(), self.classes))
            }
        };
        tr.end(root);
        let span = tr.spans()[root as usize];
        Ok(((span.end_ns - span.start_ns) as f64 / 1e3, same, preds))
    }
}

impl Bench {
    /// A bench on set-up `st` with the inputs of `seed`, and the per-image
    /// reference classes of every pool batch.
    fn new(kind: Offline, mut st: Setup, seed: u64) -> BenchResult<(Self, References)> {
        let inp = inputs(kind, seed);
        let (refs, ofmaps) = references(kind, &inp, &mut st)?;
        let ofmap_buf = st
            .sensor
            .as_ref()
            .map(|s| Tensor::zeros(&ofmap_batch_shape(s)));
        let bench = Bench {
            kind,
            st,
            inp,
            ofmaps: ofmap_buf,
        };
        Ok((
            bench,
            References {
                classes: refs,
                ofmaps,
            },
        ))
    }
}

/// Reference classes per pool batch, and (sensor) the captured ofmaps the
/// staged pipeline's logits are checked on.
struct References {
    classes: Vec<Vec<usize>>,
    ofmaps: Vec<Tensor>,
}

/// The `sensor_proxy` workload.
pub fn run(args: &Args, t0: Instant) -> BenchResult<Run> {
    let kind = Offline::Sensor;
    let (st, setup_s) = timed_setups(t0, || setup(kind))?;
    let (mut bench, refs) = Bench::new(kind, st, args.seed)?;
    let seconds = args.seconds as f64;
    let mut run = Run::new();
    run.param("batch", BATCH);
    run.param("limit_us", SENSOR_LIMIT_US);
    run.param("closed_loop_threads", 1);
    run.param("frame_hw", SENSOR_HW);
    run.param("backbone", "resnet_proxy");
    run.param("noisy_capture", true);
    if args.trace {
        let tr = layer_table(&mut bench, &refs, seconds, &mut run)?;
        tr.write_csv(&crate::report::out_path(args, "spans.csv"))?;
        return Ok(run);
    }
    let n = bench.pool_len();
    let mut preds = Vec::with_capacity(BATCH);
    let ws0 = bench.st.session.stats();
    let mut w = Window::new(kind, seconds);
    let mut clock = HostClock::new(w.start, w.samples.capacity());
    let mut i = 0;
    while w.elapsed_s() < seconds {
        let b = i % n;
        clock.probe();
        let (start, end) = bench.call(b, &mut preds)?;
        w.push(clock.ref_us(start, end), &refs.classes[b], &preds);
        i += 1;
    }
    let end = Instant::now();
    run.mark_peak_rss(w.buffer_bytes());
    run.window_e2e(
        &w.samples,
        clock.ref_us(w.start, end) / 1e6,
        w.tally,
        setup_s,
    );
    run.host_clock(&clock, (end - w.start).as_secs_f64());
    let misses = bench.st.session.stats().misses - ws0.misses;
    run.note("workspace_misses_in_window", misses as f64);
    Ok(run)
}

/// The per-layer table of the `tiny_cnn` pipeline at the serving tier's
/// full batch (8x3x16x16), measured for `seconds` on the inputs of `seed`.
/// Returns its spans.
pub fn tiny_layer_table(seed: u64, seconds: f64, run: &mut Run) -> BenchResult<Tracer> {
    let (mut bench, refs) = Bench::new(Offline::Tiny, setup(Offline::Tiny)?, seed)?;
    run.param("layer_table_input", "8x3x16x16");
    run.param("layer_table_seconds", seconds);
    layer_table(&mut bench, &refs, seconds, run)
}

/// Per-layer metrics from spans. For `seconds`, untraced session calls and
/// staged calls alternate, so both see the same machine. Every staged
/// batch must reproduce the untraced logits bit for bit, and the stage
/// self times must add up to the untraced per-batch latency within
/// [`stats::STAGE_SUM_TOLERANCE`]. Both windows' outcomes are checked
/// against the references. Returns the spans.
fn layer_table(
    bench: &mut Bench,
    refs: &References,
    seconds: f64,
    run: &mut Run,
) -> BenchResult<Tracer> {
    let kind = bench.kind;
    let n = bench.pool_len();
    let mut preds = Vec::with_capacity(BATCH);
    let mut traced = Traced::new(bench, &refs.ofmaps)?;
    let ws0 = bench.st.session.stats();
    let (mut wu, mut wt) = (Window::new(kind, seconds), Window::new(kind, seconds));
    let mut mismatched = 0u64;
    let mut i = 0usize;
    while wu.elapsed_s() < seconds {
        let b = (i / 2) % n;
        if i.is_multiple_of(2) {
            let (start, end) = bench.call(b, &mut preds)?;
            wu.push((end - start).as_secs_f64() * 1e6, &refs.classes[b], &preds);
        } else {
            let (lat, same, p) = traced.call(bench, b, i as u64)?;
            wt.push(lat, &refs.classes[b], &p);
            mismatched += u64::from(!same);
        }
        i += 1;
    }
    let ws1 = bench.st.session.stats();
    let untraced_mean = wu.mean_us();
    let traced_batches = wt.samples.len().max(1) as f64;

    // Mean self time per span.
    let totals = traced.tr.totals();
    let mut stage_sum = 0.0;
    for t in totals
        .iter()
        .filter(|t| t.count > 0 && t.name != "bench.batch")
    {
        let name = match t.name.as_str() {
            "core.decoder" => "core.decoder.self_us".to_string(),
            name => format!("{name}_us"),
        };
        run.layer(&name, t.mean_self_us());
        stage_sum += t.self_ns as f64 / traced_batches / 1e3;
    }
    if let Some(d) = totals
        .iter()
        .find(|t| t.name == "core.decoder" && t.count > 0)
    {
        let ofmap_shape = match &bench.ofmaps {
            Some(o) => o.shape().to_vec(),
            None => vec![BATCH, 4, 8, 8],
        };
        let mean_ns = d.dur_ns as f64 / d.count as f64;
        run.layer(
            "core.decoder.gflops",
            decoder_flops(&traced.staged.p, &ofmap_shape) / mean_ns,
        );
    }
    // Session self time (validation, argmax, glue): the untraced call
    // minus its staged parts.
    run.layer("core.session.self_us", untraced_mean - stage_sum);
    let (ratio, within) = stats::stage_sum_check(stage_sum, untraced_mean);
    run.layer("trace.stage_sum_ratio", ratio);
    run.layer("trace.overhead_ratio", wt.mean_us() / untraced_mean - 1.0);
    let (hits, misses) = (ws1.hits - ws0.hits, ws1.misses - ws0.misses);
    run.layer(
        "tensor.workspace.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    run.layer("tensor.workspace.misses", misses as f64);
    run.layer("tensor.workspace.bytes_resident", ws1.bytes_resident as f64);
    run.note("stage_sum_tolerance", stats::STAGE_SUM_TOLERANCE);
    run.note("staged_batches", wt.samples.len() as f64);
    run.note("staged_logit_mismatches", mismatched as f64);
    if mismatched > 0 {
        run.fail(format!(
            "{mismatched} staged batches differ from the untraced logits"
        ));
    }
    if !within {
        run.fail(format!(
            "stage self times sum to {ratio:.3} of the untraced per-batch latency \
             (tolerance {})",
            stats::STAGE_SUM_TOLERANCE
        ));
    }
    run.add_tally(wu.tally);
    run.add_tally(wt.tally);
    Ok(traced.tr)
}

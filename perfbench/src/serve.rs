//! `serve-ldlsolve`: SUBMIT→RESULT against an in-process
//! `csfma_serve::Server` with the `csfma-serve` CLI defaults.
//!
//! Two client connections each run a closed loop with zero think time.
//! Every SUBMIT carries the ldlsolve-s1 discrete source (re-parsed by the
//! server on every request) and 256 real-factor rows from a small pool
//! with precomputed digests. One request in 32 (seeded) carries a
//! variant graph with one extra output, which misses the tape cache and
//! compiles on the request path: hits set p50, misses set p99.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use csfma_core::batch::CHUNK_ROWS;
use csfma_hls::{
    clear_tape_cache, compile, compile_cached, parse_program, tape_cache_stats, Cdfg, Profiler,
    RobustOptions, RowOutcome, Tape, TapeBackend,
};
use csfma_serve::engine::process_submit;
use csfma_serve::frame::{self, backend};
use csfma_serve::{
    EngineConfig, Frame, ServeConfig, ServeStats, Server, ServerHandle, StatsSnapshot,
};

use crate::graphs::{self, Rng};
use crate::report::{self, median, ms, quantile, Outcome};
use crate::trace::Tracer;
use crate::{more_setups, Args};

const ROWS: usize = 256;
const POOL: usize = 4;
const VARIANT_ONE_IN: u64 = 32;
/// Requests the traced run replays in-process, per phase.
const REPLAY: usize = 1024;
/// Requests the untraced run replays to check the cache-hit ratio.
const REPLAY_CHECK: usize = 96;
/// Variant ids of the traced window start here, so its variants are
/// new to the server's tape cache too.
const TRACED_VARIANTS: u64 = 1 << 32;

fn server_config() -> ServeConfig {
    ServeConfig {
        // the CLI defaults: 2 workers, max_inflight 4, max_queue 8, no
        // fault seed; only the per-connection rate limit is raised out
        // of reach, so the run measures the server, not its limiter
        workers: 2,
        max_frames_per_sec: 1e9,
        ..ServeConfig::default()
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: server_config().workers,
        chunk_retries: server_config().chunk_retries,
        fault_seed: None,
    }
}

/// The ldlsolve-s1 source, its payload pool and reference digests.
struct Pool {
    source: String,
    graph: Cdfg,
    tape: Tape,
    payloads: Vec<Vec<f64>>,
    outputs: Vec<Vec<f64>>,
    digests: Vec<u64>,
    frames: Vec<Frame>,
    dim: usize,
}

impl Pool {
    fn build(seed: u64) -> Pool {
        let kernel = graphs::ldl_kernels(1).remove(0);
        let graph = parse_program(&kernel.source).expect("printed kernels re-parse");
        // the uncached compile: the server's tape cache must meet every
        // graph for the first time itself
        let tape = compile(&graph).expect("ldlsolve-s1 compiles");
        let mut rng = Rng::new(seed, 3);
        let payloads: Vec<Vec<f64>> = (0..POOL)
            .map(|_| kernel.rows(tape.input_names(), ROWS, &mut rng))
            .collect();
        let outputs: Vec<Vec<f64>> = payloads
            .iter()
            .map(|p| tape.eval_batch(TapeBackend::BitAccurate, p, 1))
            .collect();
        let digests = outputs.iter().map(|o| csfma_serve::digest(o)).collect();
        let frames = payloads
            .iter()
            .map(|p| submit(kernel.source.clone(), p.clone()))
            .collect();
        Pool {
            source: kernel.source,
            graph,
            tape,
            payloads,
            outputs,
            digests,
            frames,
            dim: kernel.prog.dim,
        }
    }

    fn source_of(&self, spec: &Spec) -> String {
        match spec.variant {
            None => self.source.clone(),
            Some(id) => variant_source(&self.source, id, self.dim),
        }
    }
}

fn submit(graph: String, data: Vec<f64>) -> Frame {
    Frame::Submit {
        backend: backend::BIT,
        deadline_ms: 0,
        rows: ROWS as u32,
        graph,
        data,
    }
}

/// The base program plus one output multiplying an input by a constant
/// unique to `id`: a graph no earlier request used.
fn variant_source(base: &str, id: u64, dim: usize) -> String {
    let c = 1.0 + (id + 1) as f64 * 2f64.powi(-40);
    format!(
        "{base}\nout perfbench_v = b{} * {c:?};\n",
        id as usize % dim
    )
}

#[derive(Clone, Copy, Debug)]
struct Spec {
    payload: usize,
    variant: Option<u64>,
}

/// The seeded request sequence of one connection.
struct Stream {
    rng: Rng,
    next_variant: u64,
    step: u64,
    /// Requests drawn so far.
    drawn: u64,
}

impl Stream {
    fn new(seed: u64, conn: usize, conns: usize, variant_base: u64) -> Stream {
        Stream {
            rng: Rng::new(seed, 100 + conn as u64),
            next_variant: variant_base + conn as u64,
            step: conns as u64,
            drawn: 0,
        }
    }

    fn next(&mut self) -> Spec {
        self.drawn += 1;
        let payload = (self.rng.next_u64() % POOL as u64) as usize;
        let variant = self.rng.one_in(VARIANT_ONE_IN).then(|| {
            let id = self.next_variant;
            self.next_variant += self.step;
            id
        });
        Spec { payload, variant }
    }
}

/// The first `n` requests of the interleaved connection sequences.
fn sequence(seed: u64, conns: usize, variant_base: u64, n: usize) -> Vec<Spec> {
    let mut streams: Vec<Stream> = (0..conns)
        .map(|c| Stream::new(seed, c, conns, variant_base))
        .collect();
    (0..n).map(|i| streams[i % conns].next()).collect()
}

/// Send one encoded frame and read back one whole frame's bytes.
fn exchange(sock: &mut TcpStream, bytes: &[u8], buf: &mut Vec<u8>) -> std::io::Result<()> {
    sock.write_all(bytes)?;
    buf.resize(4, 0);
    sock.read_exact(&mut buf[..4])?;
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4-byte prefix")) as usize;
    if len > frame::DEFAULT_MAX_FRAME_LEN {
        return Err(std::io::Error::other("response frame over the size limit"));
    }
    buf.resize(4 + len, 0);
    sock.read_exact(&mut buf[4..])
}

/// One request's reply, as far as the client can judge it.
enum Reply {
    Result {
        digest: u64,
        rows: u32,
        quarantined: u32,
        self_consistent: bool,
    },
    Refused(String),
}

struct ConnRun {
    conn: usize,
    latency_ms: Vec<f64>,
    sent: Vec<Spec>,
    replies: Vec<Reply>,
    tracer: Tracer,
    wall: Duration,
}

/// A closed loop on one connection until `until`.
fn client_loop(
    pool: &Pool,
    sock: &mut TcpStream,
    stream: &mut Stream,
    until: Instant,
    mut tr: Tracer,
    conn: usize,
) -> ConnRun {
    let start = Instant::now();
    let mut run = ConnRun {
        conn,
        latency_ms: Vec::new(),
        sent: Vec::new(),
        replies: Vec::new(),
        tracer: Tracer::off(),
        wall: Duration::ZERO,
    };
    let mut buf = Vec::new();
    while Instant::now() < until {
        let spec = stream.next();
        let variant = spec
            .variant
            .map(|_| submit(pool.source_of(&spec), pool.payloads[spec.payload].clone()));
        let f = variant.as_ref().unwrap_or(&pool.frames[spec.payload]);
        let req = ((conn as u64) << 40) | stream.drawn;
        let t = Instant::now();
        let reply = tr.span("request", req, |tr| {
            let bytes = tr.span("serve.frame.encode", req, |_| frame::encode(f));
            let io = tr.span("serve.wait", req, |_| exchange(sock, &bytes, &mut buf));
            io.map(|()| {
                tr.span("serve.frame.decode", req, |_| {
                    frame::decode(&buf, frame::DEFAULT_MAX_FRAME_LEN)
                })
            })
        });
        let latency = ms(t.elapsed());
        let reply = match reply {
            Err(e) => Reply::Refused(format!("unanswered: {e}")),
            Ok(Err(e)) => Reply::Refused(format!("undecodable reply: {e}")),
            Ok(Ok(None)) => Reply::Refused("truncated reply".into()),
            Ok(Ok(Some((
                Frame::Result {
                    digest,
                    rows,
                    quarantined,
                    data,
                },
                _,
            )))) => Reply::Result {
                digest,
                rows,
                quarantined,
                self_consistent: csfma_serve::digest(&data) == digest,
            },
            Ok(Ok(Some((other, _)))) => Reply::Refused(format!("{other:?}")),
        };
        let unanswered = matches!(&reply, Reply::Refused(m) if m.starts_with("unanswered"));
        run.latency_ms.push(latency);
        run.sent.push(spec);
        run.replies.push(reply);
        if unanswered {
            break;
        }
    }
    run.wall = start.elapsed();
    run.tracer = tr;
    run
}

/// A bound, running server with its client connections.
struct Live {
    handle: ServerHandle,
    runner: JoinHandle<StatsSnapshot>,
    addr: SocketAddr,
    socks: Vec<TcpStream>,
}

impl Live {
    fn start(conns: usize) -> std::io::Result<Live> {
        let server = Server::bind(server_config())?;
        let addr = server.local_addr()?;
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());
        let mut socks = Vec::new();
        for _ in 0..conns {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            socks.push(s);
        }
        Ok(Live {
            handle,
            runner,
            addr,
            socks,
        })
    }

    /// Ask for a STATS frame on the first connection.
    fn stats(&mut self) -> Option<StatsSnapshot> {
        let mut buf = Vec::new();
        let bytes = frame::encode(&Frame::Stats {
            json: String::new(),
        });
        exchange(&mut self.socks[0], &bytes, &mut buf).ok()?;
        match frame::decode(&buf, frame::DEFAULT_MAX_FRAME_LEN) {
            Ok(Some((Frame::Stats { json }, _))) => StatsSnapshot::from_json(&json),
            _ => None,
        }
    }

    /// Close the connections, drain, and wait for the server to stop.
    fn stop(self) -> StatsSnapshot {
        drop(self.socks);
        self.handle.drain();
        self.runner
            .join()
            .expect("the server loop contains every panic")
    }
}

/// Run both connections' closed loops for `d`, continuing `streams`;
/// sockets and streams move into the client threads and come back when
/// they finish.
fn window(
    pool: &Pool,
    live: &mut Live,
    streams: &mut [Stream],
    d: Duration,
    traced: bool,
    epoch: Instant,
) -> (Vec<ConnRun>, Duration) {
    let until = Instant::now() + d;
    let start = Instant::now();
    let runs: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .socks
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(c, (sock, stream))| {
                s.spawn(move || {
                    client_loop(pool, sock, stream, until, Tracer::new(traced, epoch), c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    (runs, start.elapsed())
}

/// Check every reply: RESULT only, all rows, nothing quarantined, the
/// digest consistent with its data and equal to the local digest of the
/// payload (variants: checked after the run). Returns the variant
/// replies still to check.
fn check_replies(o: &mut Outcome, pool: &Pool, runs: &[ConnRun], pending: &mut Vec<(Spec, u64)>) {
    for r in runs {
        let mut bad = 0u64;
        let mut why = Vec::new();
        for (spec, reply) in r.sent.iter().zip(&r.replies) {
            match reply {
                Reply::Refused(m) => {
                    bad += 1;
                    why.push(m.clone());
                }
                Reply::Result {
                    digest,
                    rows,
                    quarantined,
                    self_consistent,
                } => {
                    let base_ok = spec.variant.is_some() || *digest == pool.digests[spec.payload];
                    if *rows as usize != ROWS || *quarantined != 0 || !self_consistent || !base_ok {
                        bad += 1;
                        why.push(format!(
                            "RESULT for {spec:?} differs from the local reference"
                        ));
                    } else if spec.variant.is_some() {
                        pending.push((*spec, *digest));
                    }
                }
            }
        }
        why.truncate(3);
        o.check(r.sent.len() as u64, bad, || why.join("; "));
    }
}

/// Time spent in the layers of the in-process replay.
#[derive(Default)]
struct Replay {
    requests: usize,
    hits: u64,
    misses: u64,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    retries: usize,
    quarantined: usize,
    mismatched: usize,
}

impl Replay {
    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Replay `specs` through `process_submit` from a tape cache that holds
/// only the base graph, as the live server's did.
fn replay_engine(pool: &Pool, specs: &[Spec], tr: &mut Tracer) -> Replay {
    clear_tape_cache();
    compile_cached(&pool.graph).expect("ldlsolve-s1 compiles");
    let cfg = engine_config();
    let stats = ServeStats::default();
    let before = tape_cache_stats();
    let mut r = Replay::default();
    for (i, spec) in specs.iter().enumerate() {
        let src = pool.source_of(spec);
        let data = &pool.payloads[spec.payload];
        let now = Instant::now();
        let f = tr.span("serve.engine", i as u64, |_| {
            process_submit(
                &cfg,
                &stats,
                i as u64,
                backend::BIT,
                ROWS as u32,
                &src,
                data,
                now + Duration::from_secs(60),
                now,
            )
        });
        let ok = match f {
            Frame::Result {
                digest,
                quarantined,
                ..
            } => {
                quarantined == 0 && (spec.variant.is_some() || digest == pool.digests[spec.payload])
            }
            _ => false,
        };
        r.mismatched += usize::from(!ok);
        r.requests += 1;
    }
    let after = tape_cache_stats();
    r.hits = after.hits - before.hits;
    r.misses = after.misses - before.misses;
    r
}

/// Replay `specs` one layer at a time: `parse_program`, `compile_cached`,
/// then `eval_batch_robust` over the engine's slabs.
fn replay_layers(pool: &Pool, specs: &[Spec], tr: &mut Tracer) -> Replay {
    clear_tape_cache();
    compile_cached(&pool.graph).expect("ldlsolve-s1 compiles");
    let cfg = engine_config();
    let slab_rows = CHUNK_ROWS * cfg.workers.max(1);
    let opts = RobustOptions {
        threads: cfg.workers,
        chunk_retries: cfg.chunk_retries,
        fault: None,
    };
    let mut r = Replay::default();
    for (i, spec) in specs.iter().enumerate() {
        let req = i as u64;
        let src = pool.source_of(spec);
        let data = &pool.payloads[spec.payload];
        let digest = tr.span("replay", req, |tr| {
            let g = tr.span("hls.parser", req, |_| parse_program(&src)).ok()?;
            let before = tape_cache_stats();
            let t = Instant::now();
            let tape = tr.span("hls.cache", req, |_| compile_cached(&g)).ok()?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            if tape_cache_stats().hits > before.hits {
                r.hits += 1;
                r.hit_us.push(us);
            } else {
                r.misses += 1;
                r.miss_us.push(us);
            }
            let ni = tape.num_inputs();
            let mut out = Vec::with_capacity(ROWS * tape.num_outputs());
            tr.span("hls.robust", req, |_| {
                for slab in data.chunks(slab_rows * ni) {
                    let (vals, report) =
                        tape.eval_batch_robust(TapeBackend::BitAccurate, slab, &opts);
                    r.retries += report.chunk_retries;
                    r.quarantined += report
                        .outcomes
                        .iter()
                        .filter(|o| matches!(o, RowOutcome::Quarantined { .. }))
                        .count();
                    out.extend_from_slice(&vals);
                }
            });
            Some(csfma_serve::digest(&out))
        });
        let ok = match digest {
            Some(d) => spec.variant.is_some() || d == pool.digests[spec.payload],
            None => false,
        };
        r.mismatched += usize::from(!ok);
        r.requests += 1;
    }
    r
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let conns = 2.min(report::nproc());

    let mut setup_s = Vec::new();
    let mut setup: Option<(Pool, Live)> = None;
    while more_setups(&setup_s) {
        if let Some((_, live)) = setup.take() {
            live.stop();
        }
        let t = Instant::now();
        clear_tape_cache();
        let pool = Pool::build(args.seed);
        let mut live = Live::start(conns).expect("bind and connect on 127.0.0.1");
        // warm-up: the base graph enters the server's tape cache
        let mut buf = Vec::new();
        for (c, sock) in live.socks.iter_mut().enumerate() {
            for k in 0..4 {
                let p = (c + k) % POOL;
                let ok = exchange(sock, &frame::encode(&pool.frames[p]), &mut buf).is_ok()
                    && matches!(frame::decode(&buf, frame::DEFAULT_MAX_FRAME_LEN),
                        Ok(Some((Frame::Result { digest, .. }, _))) if digest == pool.digests[p]);
                o.check(1, u64::from(!ok), || "warm-up request failed".into());
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some((pool, live));
    }
    let (pool, mut live) = setup.expect("set-up runs at least once");
    o.record("server_addr", report::json_str(&live.addr.to_string()));

    let before = live.stats().unwrap_or_default();
    let cache0 = tape_cache_stats();
    // The window runs in one-second slices. The traced run alternates
    // untraced and traced slices, so both see the same stretch of host
    // time; each kind continues its own request streams, whose variants
    // are new to the tape cache. Between slices, with the clients
    // paused, a short burst samples compile_ms (what a tape-cache miss
    // adds to a request) and three host-speed probes run.
    let streams = |base| -> Vec<Stream> {
        (0..conns)
            .map(|c| Stream::new(args.seed, c, conns, base))
            .collect()
    };
    let (mut plain, mut spanned) = (streams(0), streams(TRACED_VARIANTS));
    let slice = Duration::from_secs(1);
    let mut compile_ms = Vec::new();
    let mut probes = Vec::new();
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut cpu_s = 0.0;
    let start = Instant::now();
    for k in 0.. {
        let left = args.window().saturating_sub(start.elapsed());
        if left.is_zero() {
            break;
        }
        if args.trace && k % 2 == 1 {
            let (runs, w) = window(&pool, &mut live, &mut spanned, slice.min(left), true, epoch);
            traced.extend(runs);
            traced_wall += w;
        } else {
            let cpu = report::process_cpu_s();
            let (runs, w) = window(&pool, &mut live, &mut plain, slice.min(left), false, epoch);
            cpu_s += report::process_cpu_s() - cpu;
            untraced.extend(runs);
            wall += w;
        }
        let burst = Instant::now();
        while burst.elapsed() < Duration::from_millis(50) {
            let t = Instant::now();
            let g = parse_program(&pool.source).expect("ldlsolve-s1 parses");
            let _ = compile(&g).expect("ldlsolve-s1 compiles");
            compile_ms.push(ms(t.elapsed()));
        }
        probes.extend((0..3).map(|_| graphs::probe_ms()));
    }
    let k = report::speed_scale(&probes);
    o.record("host_speed_scale", report::json_num(k));
    let cache1 = tape_cache_stats();
    let mut pending = Vec::new();
    check_replies(&mut o, &pool, &untraced, &mut pending);
    check_replies(&mut o, &pool, &traced, &mut pending);

    let latency: Vec<f64> = untraced.iter().flat_map(|r| r.latency_ms.clone()).collect();
    let results: usize = untraced
        .iter()
        .flat_map(|r| &r.replies)
        .filter(|r| matches!(r, Reply::Result { .. }))
        .count();
    let rps = results as f64 / wall.as_secs_f64();
    let rates: Vec<String> = (0..conns)
        .map(|c| {
            let sent: usize = untraced
                .iter()
                .filter(|r| r.conn == c)
                .map(|r| r.sent.len())
                .sum();
            report::json_num(sent as f64 / wall.as_secs_f64())
        })
        .collect();
    let cache_hits = (cache1.hits - cache0.hits) as f64;
    let cache_share = cache_hits / (cache_hits + (cache1.misses - cache0.misses) as f64).max(1.0);
    let traced_n: usize = traced.iter().map(|r| r.sent.len()).sum();
    for r in traced {
        tr.absorb(r.tracer);
    }

    let after = live.stats().unwrap_or_default();
    let final_stats = live.stop();
    let delta = |f: fn(&StatsSnapshot) -> u64| f(&after).saturating_sub(f(&before));
    let (shed, deadline, errors) = (
        delta(|s| s.shed),
        delta(|s| s.deadline),
        delta(|s| s.errors),
    );
    o.require(shed + deadline + errors == 0, || {
        format!("server answered SHED {shed}, DEADLINE {deadline}, ERROR {errors} times")
    });
    let queue: Vec<String> = after
        .queue_depth
        .iter()
        .zip(before.queue_depth.iter())
        .map(|(a, b)| (a - b).to_string())
        .collect();

    o.e2e("setup_s", median(&setup_s), "s");
    o.e2e(
        "datapath_cycles",
        graphs::cycles(&pool.graph) as f64,
        "cycles",
    );
    o.e2e("compile_ms", median(&compile_ms) * k, "ms");
    // requests per CPU-second the process was given: on a shared host
    // the wall-clock rate follows the CPU share the hypervisor grants
    o.e2e("throughput", results as f64 / cpu_s / k, "1/s");
    o.e2e("p50_ms", median(&latency) * k, "ms");
    o.named("setup_s", median(&setup_s), "s");
    o.named("serve_rps", rps, "req/s");
    o.named("serve_p50_ms", median(&latency), "ms");
    o.named("serve_p99_ms", quantile(&latency, 0.99), "ms");
    o.record("latency_samples", latency.len().to_string());
    o.record("process_cpu_s", report::json_num(cpu_s));
    // latency split by cache outcome: hits should set p50, misses p99
    for (kind, miss) in [("hit", false), ("miss", true)] {
        let v: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.sent.iter().zip(&r.latency_ms))
            .filter(|(s, _)| s.variant.is_some() == miss)
            .map(|(_, l)| *l)
            .collect();
        o.record(
            &format!("{kind}_latency_ms"),
            format!(
                "{{\"samples\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                v.len(),
                report::json_num(median(&v)),
                report::json_num(quantile(&v, 0.9)),
                report::json_num(quantile(&v, 0.99)),
                report::json_num(quantile(&v, 1.0))
            ),
        );
    }
    o.record("threads", conns.to_string());
    o.record("connections", conns.to_string());
    o.record("server_workers", server_config().workers.to_string());
    o.record(
        "per_connection_req_per_s",
        format!("[{}]", rates.join(", ")),
    );
    o.record(
        "shed_deadline_errors",
        format!("[{shed}, {deadline}, {errors}]"),
    );
    o.record("queue_depth_histogram", format!("[{}]", queue.join(", ")));
    o.record("server_final_stats", final_stats.to_json());
    o.record("cache_hit_share", report::json_num(cache_share));
    o.record(
        "why",
        report::json_str(
            "SUBMIT to RESULT over the socket; parsing costs as much as robust evaluation, \
             cache hits set p50 and the 1-in-32 variant misses set p99",
        ),
    );

    // variants: uncached compile of the same graph, evaluated locally
    let mut bad = 0u64;
    for (spec, digest) in &pending {
        let g = parse_program(&pool.source_of(spec)).expect("variant sources parse");
        let tape = compile(&g).expect("variant graphs compile");
        let out = tape.eval_batch(TapeBackend::BitAccurate, &pool.payloads[spec.payload], 1);
        bad += u64::from(csfma_serve::digest(&out) != *digest);
    }
    o.require(bad == 0, || {
        format!("{bad} variant digests differ from the local reference")
    });

    // the pool's reference outputs, audited against the graph interpreter
    for (p, payload) in pool.payloads.iter().enumerate() {
        let rows = graphs::audit_rows(ROWS, 8);
        let bad = graphs::audit(
            &pool.graph,
            &pool.tape,
            TapeBackend::BitAccurate,
            payload,
            &rows,
        );
        o.check(rows.len() as u64, bad as u64, || {
            "pool payload differs from eval_bit_accurate".into()
        });
        let again = pool.tape.eval_batch(TapeBackend::BitAccurate, payload, 2);
        o.require(graphs::same_bits(&again, &pool.outputs[p]), || {
            "pool outputs differ between 1 and 2 threads".into()
        });
    }

    // determinism: the cache-hit ratio of one request sequence must
    // repeat exactly between the engine and the per-layer replays
    let n_replay = if args.trace { REPLAY } else { REPLAY_CHECK };
    let specs = sequence(args.seed, conns, TRACED_VARIANTS, n_replay);
    let mut replay = Tracer::new(args.trace, epoch);
    let engine = replay_engine(&pool, &specs, &mut replay);
    let layered = replay_layers(&pool, &specs, &mut replay);
    o.require(engine.hit_ratio() == layered.hit_ratio(), || {
        format!(
            "cache-hit ratio differs between replays: {} vs {}",
            engine.hit_ratio(),
            layered.hit_ratio()
        )
    });
    o.check(
        (engine.requests + layered.requests) as u64,
        (engine.mismatched + layered.mismatched) as u64,
        || "replayed request differs from the local reference".into(),
    );

    if args.trace {
        let layers = replay.layers();
        let per_req = |name: &str, count: usize| {
            layers
                .get(name)
                .map_or(0.0, |l| l.self_ns as f64 / 1e3 / count.max(1) as f64)
        };
        let engine_us = per_req("serve.engine", engine.requests);
        o.layer("serve.engine.us_per_req", engine_us, "us");
        o.layer(
            "hls.parser.us_per_req",
            per_req("hls.parser", layered.requests),
            "us",
        );
        o.layer(
            "hls.robust.us_per_req",
            per_req("hls.robust", layered.requests),
            "us",
        );
        o.layer("hls.robust.retries", layered.retries as f64, "count");
        o.layer(
            "hls.robust.quarantined_rows",
            layered.quarantined as f64,
            "count",
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        o.layer("hls.cache.hit_us", mean(&layered.hit_us), "us");
        o.layer("hls.cache.miss_us", mean(&layered.miss_us), "us");
        o.layer("hls.cache.hit_ratio", layered.hit_ratio(), "ratio");
        let replay_whole = layers.get("replay").map_or(0, |l| l.total_ns) as f64;
        let replay_residual = layers.get("replay").map_or(0, |l| l.self_ns) as f64;
        o.record(
            "replay_residual_share",
            report::json_num(replay_residual / replay_whole),
        );
        let engine_vs_layers =
            engine_us / (replay_whole / 1e3 / layered.requests.max(1) as f64) - 1.0;
        o.record("engine_vs_layer_replay", report::json_num(engine_vs_layers));

        let traced_rps = traced_n as f64 / traced_wall.as_secs_f64();
        let cl = tr.layers();
        let client_us = |name: &str| {
            cl.get(name)
                .map_or(0.0, |l| l.self_ns as f64 / 1e3 / traced_n.max(1) as f64)
        };
        o.layer(
            "serve.frame.encode_us",
            client_us("serve.frame.encode"),
            "us",
        );
        o.layer(
            "serve.frame.decode_us",
            client_us("serve.frame.decode"),
            "us",
        );
        o.layer("serve.wait_us", client_us("serve.wait") - engine_us, "us");
        o.layer("serve.shed", shed as f64, "count");
        o.layer("serve.deadline", deadline as f64, "count");
        o.layer("serve.errors", errors as f64, "count");
        for (i, name) in [
            "serve.queue_depth.0",
            "serve.queue_depth.1",
            "serve.queue_depth.2",
            "serve.queue_depth.3",
        ]
        .iter()
        .enumerate()
        {
            o.layer(
                name,
                (after.queue_depth[i] - before.queue_depth[i]) as f64,
                "count",
            );
        }
        let tail: u64 = after.queue_depth[4..]
            .iter()
            .zip(&before.queue_depth[4..])
            .map(|(a, b)| a - b)
            .sum();
        o.layer("serve.queue_depth.4plus", tail as f64, "count");
        let whole = cl.get("request").map_or(0, |l| l.total_ns) as f64;
        let residual = cl.get("request").map_or(0, |l| l.self_ns) as f64;
        o.layer("trace.residual_share", residual / whole, "ratio");
        o.layer("trace.overhead_share", rps / traced_rps - 1.0, "ratio");
        tr.absorb(replay);
        o.layer("trace.spans", tr.len() as f64, "count");

        // hosted fast-path traffic of one request's rows
        let mut prof = Profiler::new();
        pool.tape
            .eval_batch_profiled(TapeBackend::BitAccurate, &pool.payloads[0], 2, &mut prof);
        let rep = prof.finish();
        let hosted = rep.counter("hosted_ops").unwrap_or(0.0);
        o.layer("softfloat.hosted_ops", hosted, "count");
        if let Some(h) = rep.counter("hosted_hit_rate") {
            o.layer("softfloat.hit_ratio", h, "ratio");
        }
        if let Err(e) = tr.write_jsonl(&args.trace_path()) {
            o.problems.push(format!("writing the trace: {e}"));
        }
    }
    o
}

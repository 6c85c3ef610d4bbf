//! Protocol torture suite for `csfma-serve` (DESIGN.md §15).
//!
//! Every scenario here is an attack on the one invariant the server
//! sells: *every submitted frame gets exactly one terminal response,
//! and nothing a client does crashes the accept loop or another
//! client's request*. Malformed bytes, oversized declarations,
//! slowloris dribbles, double-closes, and saturating load all land on
//! an in-process server bound to an ephemeral port; the last test
//! cross-checks served digests against the `csfma-run` binary on the
//! same seeded stimulus.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

use csfma_serve::frame::{self, backend, tag, Frame};
use csfma_serve::{Client, ServeConfig, Server, ServerHandle};
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

const GRAPH: &str = "x1 = a*b + c*d;\nx2 = e*f + g*x1;\nout x3 = h*i + k*x2;";
const NUM_INPUTS: usize = 10; // a b c d e f g h i k

fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_inflight: 2,
        max_queue: 2,
        queue_wait: Duration::from_millis(100),
        default_deadline: Duration::from_secs(30),
        max_frame_len: 1 << 20,
        idle_timeout: Duration::from_millis(400),
        drain_grace: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

fn spawn(
    cfg: ServeConfig,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<csfma_serve::StatsSnapshot>,
) {
    let server = Server::bind(cfg).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

/// The `csfma-run` stimulus formula (StdRng over the default range).
fn stimulus(seed: u64, rows: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * NUM_INPUTS)
        .map(|_| rng.gen_range(-1000.0..1000.0))
        .collect()
}

#[test]
fn malformed_and_hostile_frames_never_take_the_server_down() {
    let (addr, handle, runner) = spawn(test_config());

    // garbage bytes → structured SV002, connection closed
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&5u32.to_le_bytes()).unwrap();
        s.write_all(&[0x7F, 1, 2, 3, 4]).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (f, _) = frame::decode(&resp, 1 << 20).unwrap().expect("one reply");
        match f {
            Frame::Error { code: 2, message } => assert!(message.contains("SV002"), "{message}"),
            other => panic!("expected SV002, got {other:?}"),
        }
    }

    // oversized declaration → SV001 before the body is ever sent
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (f, _) = frame::decode(&resp, 1 << 20).unwrap().expect("one reply");
        match f {
            Frame::Error { code: 1, message } => assert!(message.contains("SV001"), "{message}"),
            other => panic!("expected SV001, got {other:?}"),
        }
    }

    // truncated frame then abrupt close; and a double-close (shutdown
    // then close again) — the handler thread must just move on
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[tag::SUBMIT, 0, 0]).unwrap(); // 97 bytes never come
        let _ = s.shutdown(std::net::Shutdown::Both);
        drop(s);
    }

    // slowloris: a partial frame dribbled slower than the idle timeout
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&16u32.to_le_bytes()).unwrap();
        s.write_all(&[tag::PING]).unwrap();
        std::thread::sleep(Duration::from_millis(700)); // > idle_timeout
                                                        // server has closed us by now; a write eventually errors and a
                                                        // read sees EOF
        let mut buf = [0u8; 16];
        let n = s.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server should have closed the stalled connection");
    }

    // a response-typed frame sent to the server → SV002
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&frame::encode(&Frame::Shed { retry_after_ms: 1 }))
            .unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (f, _) = frame::decode(&resp, 1 << 20).unwrap().expect("one reply");
        assert!(matches!(f, Frame::Error { code: 2, .. }), "{f:?}");
    }

    // after all that abuse, a well-formed client still gets service
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.ping(42).unwrap(), 42);
    let rows = 4usize;
    let reply = c
        .submit(backend::BIT, 0, rows as u32, GRAPH, &stimulus(1, rows))
        .unwrap();
    assert!(
        matches!(reply, Frame::Result { quarantined: 0, .. }),
        "{reply:?}"
    );

    handle.drain();
    let stats = runner.join().unwrap();
    assert_eq!(
        stats.panics_contained, 0,
        "a connection panicked: {stats:?}"
    );
    assert_eq!(stats.results, 1);
    // the three protocol refusals (garbage, oversize, response-typed)
    // land in `refusals`, never in the admission ledger — which must
    // balance exactly even after the hostile traffic
    assert!(stats.refusals >= 3, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert_eq!(
        stats.accepted,
        stats.results + stats.deadline + stats.errors,
        "{stats:?}"
    );
}

/// A 500-link chain `s_i = s_(i-1) + a * k_i` that is slow by
/// construction: fed `a = 1e-160`, every product is subnormal, so the
/// soft-float guard recomputes every multiply, and the distinct `k_i` keep
/// CSE from merging links. One 64-row robust slab takes about 15 ms in a
/// release build and about 140 ms in a debug one; a debug parse alone
/// takes about 3 ms. Its inputs are `a` and `s0`; feed both `1e-160`.
fn slow_chain() -> String {
    let mut src = String::from("in a, s0;\n");
    for i in 1..=500 {
        let k = 1e-160 * (1.0 + i as f64 / 1024.0);
        src.push_str(&format!("s{i} = s{} + a * {k:e};\n", i - 1));
    }
    src.push_str("out y = s500;\n");
    src
}

#[test]
fn overload_sheds_with_retry_hint_and_deadline_cuts_off_at_chunk_boundary() {
    let cfg = ServeConfig {
        max_inflight: 1,
        max_queue: 0,
        queue_wait: Duration::from_millis(10),
        max_frame_len: 8 << 20,
        ..test_config()
    };
    let (addr, handle, runner) = spawn(cfg);

    // client A occupies the only evaluation slot with eight slabs of the
    // slow chain: about 120 ms in a release build, a second in a debug
    // one, while B's probes below need a few ms. It also warms the tape
    // cache for the deadline leg.
    let chain = slow_chain();
    let rows_a = 8 * 64usize;
    let data_a = vec![1e-160; rows_a * 2];
    let chain_a = chain.clone();
    let a = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.submit(backend::BIT, 0, rows_a as u32, &chain_a, &data_a)
            .unwrap()
    });

    // wait (via the ungated STATS frame) until A is admitted, so the
    // probe below races a request that is provably in flight
    let mut watcher = Client::connect(addr).unwrap();
    for _ in 0..2000 {
        let snap = csfma_serve::StatsSnapshot::from_json(&watcher.stats().unwrap())
            .expect("stats json parses");
        if snap.accepted >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // client B probes while A holds the slot: max_queue = 0 means the
    // admission gate must shed instead of queueing
    let mut shed_seen = None;
    for _ in 0..50 {
        let mut c = Client::connect(addr).unwrap();
        match c
            .submit(backend::BIT, 0, 1, GRAPH, &stimulus(3, 1))
            .unwrap()
        {
            Frame::Shed { retry_after_ms } => {
                shed_seen = Some(retry_after_ms);
                break;
            }
            Frame::Result { .. } => std::thread::sleep(Duration::from_millis(2)),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let hint = shed_seen.expect("saturated server must shed");
    assert!(hint > 0, "retry-after hint must be positive");

    assert!(matches!(a.join().unwrap(), Frame::Result { .. }));

    // a 1 ms deadline on four slabs of the slow chain cannot finish: in
    // a release build the first slab alone takes about 15x the deadline,
    // in a debug one the parse alone passes it. Either way the deadline
    // fires at a slab boundary: DEADLINE, and no partial rows.
    let mut c = Client::connect(addr).unwrap();
    let rows = 4 * 64usize;
    let data = vec![1e-160; rows * 2];
    match c
        .submit(backend::BIT, 1, rows as u32, &chain, &data)
        .unwrap()
    {
        Frame::Deadline { .. } => {}
        other => panic!("expected DEADLINE, got {other:?}"),
    }

    handle.drain();
    let stats = runner.join().unwrap();
    assert!(stats.shed >= 1, "{stats:?}");
    assert_eq!(stats.deadline, 1, "{stats:?}");
    assert_eq!(stats.panics_contained, 0);
    // reconciliation: every accepted request ended in exactly one
    // terminal response
    assert_eq!(
        stats.accepted,
        stats.results + stats.deadline + stats.errors
    );
}

#[test]
fn concurrent_clients_get_identical_digests_to_a_local_run() {
    let cfg = ServeConfig {
        max_inflight: 4,
        max_queue: 16,
        queue_wait: Duration::from_secs(5),
        ..test_config()
    };
    let (addr, handle, runner) = spawn(cfg);

    let rows = 48usize;
    let clients: Vec<_> = (0..8u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let data = stimulus(seed, rows);
                let mut c = Client::connect(addr).unwrap();
                let reply = c
                    .submit(backend::BIT, 0, rows as u32, GRAPH, &data)
                    .unwrap();
                match reply {
                    Frame::Result {
                        digest,
                        quarantined: 0,
                        data: out,
                        ..
                    } => (seed, digest, out),
                    other => panic!("client {seed}: {other:?}"),
                }
            })
        })
        .collect();

    let g = csfma_hls::parse_program(GRAPH).unwrap();
    let tape = csfma_hls::compile_cached(&g).unwrap();
    for t in clients {
        let (seed, digest, out) = t.join().unwrap();
        let local = tape.eval_batch(
            csfma_hls::TapeBackend::BitAccurate,
            &stimulus(seed, rows),
            1,
        );
        assert_eq!(digest, csfma_serve::digest(&local), "seed {seed}");
        assert!(
            out.iter()
                .zip(local.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "seed {seed}: served rows diverge from local evaluation"
        );
    }
    handle.drain();
    let stats = runner.join().unwrap();
    assert_eq!(stats.results, 8);
    assert_eq!(stats.panics_contained, 0);
}

/// The served digest equals what the `csfma-run` binary prints for the
/// same graph, seed, and batch — the two entry points share stimulus
/// formula, engine, and digest formula.
#[test]
fn served_digest_matches_the_csfma_run_binary() {
    let rows = 32usize;
    let seed = 7u64;

    let mut child = Command::new(env!("CARGO_BIN_EXE_csfma-run"))
        .args(["--batch", "32", "--seed", "7"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("csfma-run spawns");
    {
        // scope the pipe so the child sees EOF before we wait on it
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(GRAPH.as_bytes()).expect("feed graph");
    }
    let out = child.wait_with_output().expect("csfma-run runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let cli_digest = stdout
        .lines()
        .find_map(|l| l.split("digest ").nth(1))
        .expect("digest line")
        .trim()
        .to_string();

    let (addr, handle, runner) = spawn(test_config());
    let mut c = Client::connect(addr).unwrap();
    let reply = c
        .submit(backend::BIT, 0, rows as u32, GRAPH, &stimulus(seed, rows))
        .unwrap();
    handle.drain();
    runner.join().unwrap();
    match reply {
        Frame::Result { digest, .. } => {
            assert_eq!(format!("{digest:#018x}"), cli_digest);
        }
        other => panic!("expected RESULT, got {other:?}"),
    }
}

/// The frame encoder as first written: the body grows from an empty
/// `Vec`, its `f64` rows 8 bytes at a time, and is then copied behind
/// the length prefix. The codec's own round-trip tests live in
/// `crates/serve`; this reference pins the wire bytes in tier-1.
mod reference {
    use csfma_serve::frame::{tag, Frame};

    fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64s(out: &mut Vec<u8>, data: &[f64]) {
        for &v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub fn encode(frame: &Frame) -> Vec<u8> {
        let mut body = Vec::new();
        match frame {
            Frame::Submit {
                backend,
                deadline_ms,
                rows,
                graph,
                data,
            } => {
                body.push(tag::SUBMIT);
                body.push(*backend);
                put_u32(&mut body, *deadline_ms);
                put_u32(&mut body, *rows);
                put_u32(&mut body, graph.len() as u32);
                body.extend_from_slice(graph.as_bytes());
                put_f64s(&mut body, data);
            }
            Frame::Result {
                digest,
                rows,
                quarantined,
                data,
            } => {
                body.push(tag::RESULT);
                body.extend_from_slice(&digest.to_le_bytes());
                put_u32(&mut body, *rows);
                put_u32(&mut body, *quarantined);
                put_f64s(&mut body, data);
            }
            Frame::Error { code, message } => {
                body.push(tag::ERROR);
                body.extend_from_slice(&code.to_le_bytes());
                body.extend_from_slice(message.as_bytes());
            }
            Frame::Shed { retry_after_ms } => {
                body.push(tag::SHED);
                put_u32(&mut body, *retry_after_ms);
            }
            Frame::Deadline { elapsed_ms } => {
                body.push(tag::DEADLINE);
                put_u32(&mut body, *elapsed_ms);
            }
            Frame::Ping { token } => {
                body.push(tag::PING);
                body.extend_from_slice(&token.to_le_bytes());
            }
            Frame::Drain => body.push(tag::DRAIN),
            Frame::Stats { json } => {
                body.push(tag::STATS);
                body.extend_from_slice(json.as_bytes());
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }
}

/// `frame` with its `f64` rows as bit patterns, so NaN payloads and
/// signed zeros compare exactly.
fn frame_bits(frame: &Frame) -> (Frame, Vec<u64>) {
    let mut frame = frame.clone();
    let data = match &mut frame {
        Frame::Submit { data, .. } | Frame::Result { data, .. } => std::mem::take(data),
        _ => Vec::new(),
    };
    (frame, data.iter().map(|v| v.to_bits()).collect())
}

/// `n` doubles that cycle through NaN payloads, signed zeros, subnormals,
/// infinities and extremes, then seeded raw bit patterns.
fn awkward_doubles(n: usize, seed: u64) -> Vec<f64> {
    let specials = [
        f64::from_bits(0x7ff0_0000_0000_0001), // signaling NaN
        f64::from_bits(0xfff8_0000_dead_beef), // negative quiet NaN, payload
        f64::NAN,
        -0.0,
        0.0,
        f64::from_bits(1),                      // smallest subnormal
        -f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal, negated
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| match specials.get(i % 32) {
            Some(&v) => v,
            None => f64::from_bits(rng.next_u64()),
        })
        .collect()
}

#[test]
fn frames_encode_to_the_reference_bytes_and_decode_bit_for_bit() {
    let frames = [
        Frame::Submit {
            backend: backend::BIT,
            deadline_ms: 250,
            rows: 256,
            graph: GRAPH.into(),
            data: awkward_doubles(256 * 156, 1),
        },
        Frame::Submit {
            backend: backend::ORACLE,
            deadline_ms: 0,
            rows: 0,
            graph: String::new(),
            data: Vec::new(),
        },
        Frame::Result {
            digest: 0xdead_beef_cafe_f00d,
            rows: 256,
            quarantined: 3,
            data: awkward_doubles(256 * 40, 2),
        },
        Frame::Error {
            code: 3,
            message: "SV003: parse error at 1:11: unexpected character 'é'".into(),
        },
        Frame::Shed { retry_after_ms: 50 },
        Frame::Deadline { elapsed_ms: 107 },
        Frame::Ping { token: u64::MAX },
        Frame::Drain,
        Frame::Stats {
            json: String::new(),
        },
        Frame::Stats {
            json: "{\"accepted\":3}".into(),
        },
    ];
    for f in &frames {
        let bytes = frame::encode(f);
        // a mismatch names the frame without printing its 40k rows
        let head = frame_bits(f).0;
        assert!(bytes == reference::encode(f), "{head:?}: wire bytes differ");
        let (got, consumed) = frame::decode(&bytes, 16 << 20)
            .expect("decodes")
            .expect("complete");
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame_bits(&got), frame_bits(f));
    }
}

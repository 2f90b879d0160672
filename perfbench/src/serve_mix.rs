//! The `serve_mix` workload: a `retime-serve` daemon with one worker and
//! a disk cache tier, driven over the NDJSON protocol by one client
//! thread in a closed loop over two connections (each connection sends
//! its next request only after the previous one's result arrived).
//!
//! Set-up starts a daemon, primes every hit key, restarts the daemon on
//! the same cache directory (so the disk set sits on disk only),
//! re-touches the hot set (so it sits in memory), and fills the warm
//! pool. The memory tier holds [`MEMORY_ENTRIES`] entries, fewer than
//! the hit working set.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::time::Instant;

use retime_liberty::Library;
use retime_serve::epoll::{Epoll, EpollEvent, EPOLLIN};
use retime_serve::job::ResolvedCircuit;
use retime_serve::json::{parse, Json};
use retime_serve::{
    execute, prepare, resolve_spec, sha256_hex, CacheConfig, CircuitRef, Client, DiskCacheConfig,
    ServerConfig, ServerHandle,
};

use retime_verify::FlowKind;

use crate::gen::{submit_line, suite_spec, ServeOp, ServePlan};
use crate::report::{Job, Round};

/// Memory-tier entry cap: below the hit working set (hot set plus disk
/// set), above the distinct keys touched between two visits of a hot
/// key.
pub const MEMORY_ENTRIES: usize = 32;
/// Goodput latency limit: a reply slower than this does not count. It
/// sits well above the slowest request class (EDIF conversion of a
/// 200-flop netlist, a few hundred ms) so that only a stall misses it.
pub const LATENCY_LIMIT_S: f64 = 2.0;
/// Rounds per `job_tail_ms` sample: ten rounds are 320 requests, so the
/// eleventh-largest latency of a block is its 96.9th percentile whatever
/// the throughput.
pub const TAIL_ROUNDS: usize = 10;
/// Most warm-pool fillers a set-up submits (the pool is full long
/// before).
const MAX_FILL: usize = 1024;
/// A reply that takes longer than this aborts the run.
const REPLY_TIMEOUT_MS: i32 = 60_000;

/// A running daemon with its cache directory and the two load
/// connections.
pub struct ServeEnv {
    handle: Option<ServerHandle>,
    dir: PathBuf,
    conns: Vec<Conn>,
    epoll: Epoll,
    /// `seq_area` of each hot submission's result, by submit line.
    pub hot_areas: HashMap<String, f64>,
}

fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: 1,
        cache: CacheConfig {
            memory_entries: MEMORY_ENTRIES,
            disk: Some(DiskCacheConfig {
                dir: dir.to_path_buf(),
                max_bytes: 1 << 30,
            }),
        },
        ..ServerConfig::default()
    }
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

/// Submits `line` and waits for its result.
fn submit_and_wait(client: &mut Client, line: &str) -> std::io::Result<Json> {
    let reply = client.request_line(line)?;
    let id = reply
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| io_err(format!("submit rejected: {}", reply.render())))?;
    let result = client.wait_result(id)?;
    if result.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(io_err(format!("job failed: {}", result.render())));
    }
    Ok(result)
}

impl ServeEnv {
    /// Starts, primes, restarts, and re-warms a daemon whose cache lives
    /// in `dir` (emptied first).
    ///
    /// # Errors
    /// Propagates daemon, socket, and priming failures.
    pub fn start(plan: &ServePlan, dir: &Path) -> std::io::Result<ServeEnv> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        // First daemon: run every hit key once, so each lands on disk.
        let first = retime_serve::Server::spawn(server_config(dir))?;
        {
            let mut client = Client::connect(&first.addr().to_string())?;
            for line in plan.prime_lines() {
                submit_and_wait(&mut client, line)?;
            }
            client.shutdown()?;
        }
        first.wait();
        // Second daemon on the same directory: everything starts on disk
        // only; touching the hot set promotes it into memory.
        let handle = retime_serve::Server::spawn(server_config(dir))?;
        let addr = handle.addr().to_string();
        let mut hot_areas = HashMap::new();
        {
            let mut client = Client::connect(&addr)?;
            for line in plan.hot_lines() {
                let result = submit_and_wait(&mut client, line)?;
                let area = result
                    .get("result")
                    .and_then(|r| r.get("seq_area"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                hot_areas.insert(line.to_string(), area);
            }
            // Fill the warm pool: submit fresh netlists until one no
            // longer grows it. Every timed round then meets the pool in
            // the state it keeps for the rest of the run, however many
            // rounds the run holds.
            let entries = |addr: &str| {
                read_counters(addr).map(|c| c.get(WARM_POOL_GAUGE).copied().unwrap_or(0.0))
            };
            let mut parked = entries(&addr)?;
            for i in 0..MAX_FILL {
                submit_and_wait(&mut client, &plan.fill_line(i))?;
                let now = entries(&addr)?;
                if now <= parked {
                    break;
                }
                parked = now;
            }
        }
        let epoll = Epoll::new()?;
        let mut conns = Vec::new();
        for token in 0..2u64 {
            let stream = TcpStream::connect(&addr)?;
            stream.set_nodelay(true)?;
            epoll.add(stream.as_raw_fd(), EPOLLIN, token)?;
            conns.push(Conn {
                stream,
                buf: Vec::new(),
                state: ConnState::Idle,
            });
        }
        Ok(ServeEnv {
            handle: Some(handle),
            dir: dir.to_path_buf(),
            conns,
            epoll,
            hot_areas,
        })
    }

    /// The daemon's address.
    fn addr(&self) -> String {
        self.handle
            .as_ref()
            .map_or_else(String::new, |h| h.addr().to_string())
    }

    /// Shuts the daemon down, joins its threads, and removes the cache
    /// directory.
    fn stop(&mut self) {
        self.conns.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Runs one round of requests through the closed loop.
    ///
    /// # Errors
    /// Socket failures and reply timeouts (the daemon stopped
    /// answering).
    pub fn run_round(&mut self, ops: &[ServeOp]) -> std::io::Result<(f64, Vec<Reply>)> {
        let mut replies: Vec<Option<Reply>> = vec![None; ops.len()];
        let mut next = 0;
        let t0 = Instant::now();
        for c in 0..self.conns.len() {
            if next < ops.len() {
                self.conns[c].start(next, &ops[next].line)?;
                next += 1;
            }
        }
        let mut events = [EpollEvent::default(); 4];
        let mut outstanding = self.conns.iter().filter(|c| c.busy()).count();
        while outstanding > 0 {
            let n = self.epoll.wait(&mut events, REPLY_TIMEOUT_MS)?;
            if n == 0 {
                return Err(io_err("daemon stopped answering".into()));
            }
            for ev in &events[..n] {
                let c = ev.token() as usize;
                for done in self.conns[c].on_readable()? {
                    let idx = done.op;
                    replies[idx] = Some(done);
                    outstanding -= 1;
                    if next < ops.len() {
                        self.conns[c].start(next, &ops[next].line)?;
                        next += 1;
                        outstanding += 1;
                    }
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        Ok((
            wall,
            replies
                .into_iter()
                .map(|r| r.expect("every op answered"))
                .collect(),
        ))
    }

    /// The daemon's Prometheus counters, summed over labels per family.
    ///
    /// # Errors
    /// Socket failures.
    pub fn counters(&self) -> std::io::Result<HashMap<String, f64>> {
        read_counters(&self.addr())
    }
}

/// The daemon's gauge of parked warm bases.
const WARM_POOL_GAUGE: &str = "retime_serve_warm_pool_entries";

/// The Prometheus counters of the daemon at `addr`, summed over labels
/// per family.
fn read_counters(addr: &str) -> std::io::Result<HashMap<String, f64>> {
    let mut client = Client::connect(addr)?;
    let text = client.metrics_text()?;
    let mut out = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let family = name.split('{').next().unwrap_or(name);
        if let Ok(v) = value.parse::<f64>() {
            *out.entry(family.to_string()).or_insert(0.0) += v;
        }
    }
    Ok(out)
}

/// Dropping the environment stops the daemon and removes its cache.
impl Drop for ServeEnv {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What one request got back.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Index of the request in its round.
    pub op: usize,
    /// Submit → result latency, seconds.
    pub latency_s: f64,
    /// The daemon's job id (0 when the submit was refused).
    pub job_id: u64,
    /// Whether the submit was answered from the cache.
    pub cached: bool,
    /// `payload_sha256` of a `done` result; `None` for refusals
    /// (`overloaded`, errors) and failed jobs.
    pub sha: Option<String>,
    /// `seq_area` of the result payload.
    pub seq_area: f64,
    /// The refusal or failure text.
    pub error: Option<String>,
}

enum ConnState {
    Idle,
    Submitted {
        op: usize,
        t0: Instant,
    },
    Waiting {
        op: usize,
        t0: Instant,
        job_id: u64,
        cached: bool,
    },
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    state: ConnState,
}

impl Conn {
    fn busy(&self) -> bool {
        !matches!(self.state, ConnState::Idle)
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    fn start(&mut self, op: usize, line: &str) -> std::io::Result<()> {
        self.state = ConnState::Submitted {
            op,
            t0: Instant::now(),
        };
        self.send(line)
    }

    /// Reads what arrived and advances the request state machine;
    /// returns the requests that finished.
    fn on_readable(&mut self) -> std::io::Result<Vec<Reply>> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io_err("daemon closed the connection".into()));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        let mut done = Vec::new();
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let reply = parse(String::from_utf8_lossy(&line).trim())
                .map_err(|e| io_err(format!("unparseable reply: {e}")))?;
            if let Some(r) = self.on_reply(&reply)? {
                done.push(r);
            }
        }
        Ok(done)
    }

    fn on_reply(&mut self, reply: &Json) -> std::io::Result<Option<Reply>> {
        let ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
        let error = || {
            Some(
                reply
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("error reply")
                    .to_string(),
            )
        };
        match std::mem::replace(&mut self.state, ConnState::Idle) {
            ConnState::Submitted { op, t0 } => {
                let job_id = reply.get("id").and_then(Json::as_u64);
                match (ok, job_id) {
                    (true, Some(job_id)) => {
                        let cached = reply.get("cached").and_then(Json::as_bool) == Some(true);
                        self.state = ConnState::Waiting {
                            op,
                            t0,
                            job_id,
                            cached,
                        };
                        self.send(&format!(r#"{{"cmd":"result","id":{job_id},"wait":true}}"#))?;
                        Ok(None)
                    }
                    _ => Ok(Some(Reply {
                        op,
                        latency_s: t0.elapsed().as_secs_f64(),
                        error: error(),
                        ..Reply::default()
                    })),
                }
            }
            ConnState::Waiting {
                op,
                t0,
                job_id,
                cached,
            } => {
                let latency_s = t0.elapsed().as_secs_f64();
                let done = ok && reply.get("status").and_then(Json::as_str) == Some("done");
                Ok(Some(Reply {
                    op,
                    latency_s,
                    job_id,
                    cached,
                    sha: if done {
                        reply
                            .get("payload_sha256")
                            .and_then(Json::as_str)
                            .map(str::to_string)
                    } else {
                        None
                    },
                    seq_area: reply
                        .get("result")
                        .and_then(|r| r.get("seq_area"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                    error: if done { None } else { error() },
                }))
            }
            ConnState::Idle => Err(io_err("reply on an idle connection".into())),
        }
    }
}

/// Expected payload digests, computed in process by
/// `retime_serve::execute` on the same submission and memoized by cache
/// key (and by the digest of the submit line, so repeated hits skip
/// resolution without the memo holding their netlist text).
#[derive(Default)]
pub struct Oracle {
    by_key: HashMap<String, String>,
    by_line: HashMap<String, String>,
}

impl Oracle {
    /// The payload digest a correct daemon returns for `op`.
    ///
    /// # Errors
    /// Describes a submission that does not resolve or execute.
    pub fn expected(&mut self, op: &ServeOp, lib: &Library) -> Result<String, String> {
        let line_sha = sha256_hex(op.line.as_bytes());
        if let Some(sha) = self.by_line.get(&line_sha) {
            return Ok(sha.clone());
        }
        let resolved = resolve_spec(&op.spec, lib)?;
        let prepared = prepare(&op.spec, &resolved, lib);
        let sha = match self.by_key.get(&prepared.key) {
            Some(sha) => sha.clone(),
            None => {
                let out =
                    execute(&prepared.key_config, &resolved, lib).map_err(|e| e.to_string())?;
                self.by_key.insert(prepared.key, out.payload_sha256.clone());
                out.payload_sha256
            }
        };
        self.by_line.insert(line_sha, sha.clone());
        Ok(sha)
    }
}

/// Checks one reply against the expected digest.
///
/// # Errors
/// Describes the refusal, failure, or digest mismatch.
pub fn check_reply(reply: &Reply, expected_sha: &str) -> Result<(), String> {
    if let Some(e) = &reply.error {
        return Err(format!("refused or failed: {e}"));
    }
    match &reply.sha {
        Some(sha) if sha == expected_sha => Ok(()),
        Some(sha) => Err(format!("payload digest {sha} != expected {expected_sha}")),
        None => Err("no payload".into()),
    }
}

/// Turns a round's replies into jobs, checking each against the oracle.
pub fn to_round(
    ops: &[ServeOp],
    wall_s: f64,
    replies: &[Reply],
    oracle: &mut Oracle,
    lib: &Library,
) -> Round {
    let jobs = ops
        .iter()
        .zip(replies)
        .map(|(op, reply)| {
            let checked = oracle
                .expected(op, lib)
                .and_then(|sha| check_reply(reply, &sha));
            if let Err(e) = &checked {
                eprintln!(
                    "perfbench: serve {} request {}: {e}",
                    op.kind.name(),
                    reply.op
                );
            }
            Job {
                class: op.kind.name().to_string(),
                hit: reply.cached,
                latency_s: reply.latency_s,
                ok: checked.is_ok(),
            }
        })
        .collect();
    Round { wall_s, jobs }
}

/// Mean G-RAR sequential-area improvement over base across the named
/// hot circuits, from the payloads the daemon returned for them.
pub fn grar_impr(hot_areas: &HashMap<String, f64>) -> f64 {
    let imprs: Vec<f64> = crate::gen::SUITE_HOT
        .iter()
        .map(|circuit| {
            let area = |flow| hot_areas[&submit_line(&suite_spec(circuit, flow, 1.0))];
            retime_bench::pct_impr(area(FlowKind::Base), area(FlowKind::Grar))
        })
        .collect();
    imprs.iter().sum::<f64>() / imprs.len() as f64
}

/// Mean time to resolve and key one hit submission the way the daemon's
/// submit path does, ms: a named suite circuit is built once (the daemon
/// keeps its builds) and then only keyed; inline text is parsed,
/// canonicalized, re-parsed, and keyed on every submission.
///
/// # Errors
/// Describes a submission that does not resolve.
pub fn key_ms(hits: &[&ServeOp], lib: &Library) -> Result<f64, String> {
    let mut suite: HashMap<String, ResolvedCircuit> = HashMap::new();
    let mut total_s = 0.0;
    for op in hits {
        let spec = &op.spec;
        let t0;
        if let CircuitRef::Suite(name) = &spec.circuit {
            if !suite.contains_key(name) {
                suite.insert(name.clone(), resolve_spec(spec, lib)?);
            }
            t0 = Instant::now();
            std::hint::black_box(prepare(spec, &suite[name], lib));
        } else {
            t0 = Instant::now();
            let resolved = resolve_spec(spec, lib)?;
            std::hint::black_box(prepare(spec, &resolved, lib));
        }
        total_s += t0.elapsed().as_secs_f64();
    }
    Ok(total_s * 1e3 / hits.len().max(1) as f64)
}

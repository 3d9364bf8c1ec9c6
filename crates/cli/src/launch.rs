//! `dinfomap launch` — run the distributed pipeline as **real OS
//! processes** over the socket transport, instead of simulated ranks on
//! threads.
//!
//! The launcher forks `--procs` copies of this binary with the hidden
//! `_rank` subcommand. Every worker opens only its own binary shard
//! (`shard-R.snap`) and builds its rank with
//! [`RankProgram::prepare_shard`], whose collectives reproduce the
//! whole-graph preparation bit for bit. On edge-list input the launcher
//! parses the text once and writes the shards into `<run dir>/shards/`
//! before the first attempt (relaunches reuse them; they are deleted
//! after the last attempt). Each worker then connects a
//! [`SocketTransport`] mesh in a shared rendezvous directory and runs the
//! identical SPMD driver the thread world runs — the two backends
//! produce bit-identical MDL series, move counts, and assignments per
//! seed (gated by `tests/comm_equivalence.rs`).
//!
//! Failure handling against genuine OS failures (a SIGKILLed child, a
//! wedged rank):
//!
//! - Workers never hang: every collective carries a deadline; a blocked
//!   rank exits with code [`EXIT_TRANSPORT_FAULT`] and writes a
//!   `rank-N.diag.json` naming the dead peer or the blocked collective
//!   and the ranks it was waiting on.
//! - The launcher relaunches the world up to `--max-retries` times; with
//!   `--checkpoint-every N` the workers resume from the newest checkpoint
//!   boundary **all** ranks hold on disk ([`FileCheckpointStore`]).
//! - When retries are exhausted, the launcher degrades gracefully: it
//!   reads the agreed checkpoint in-process and reports the best
//!   checkpointed clustering, clearly marked degraded.
//!
//! Rank 0 writes `result.json` into the rendezvous directory with the
//! codelength and per-round MDL series as exact f64 bit patterns, the
//! measured wall time, the modeled makespan from the same metering
//! counters the thread world uses, and every vertex's module. The
//! launcher is the only writer of the `--output` assignment file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use infomap_distributed::{
    checkpoint_files_present, degraded_output, CheckpointStore, DistributedConfig,
    DistributedOutput, FileCheckpointStore, RankProgram, RecoveryConfig, RecoveryReport,
    SnapshotStore,
};
use infomap_graph::io;
use infomap_graph::snapshot::{
    read_header, shard_path, write_shards, PageCacheConfig, SnapshotHeader,
    SnapshotStore as GraphSnapshotStore,
};
use infomap_mpisim::{Comm, CostModel, TransportFault};
use infomap_transport_socket::{SocketConfig, SocketTransport};

/// Worker exit code for a structured transport failure (diagnostic JSON
/// written). Anything else nonzero is an ordinary error.
pub const EXIT_TRANSPORT_FAULT: i32 = 21;

/// Which socket family the mesh uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Unix-domain sockets in `<dir>/sock` (default; relaunch-safe).
    Uds,
    /// Loopback TCP on `base_port + rank`.
    Tcp { base_port: u16 },
}

/// Parsed `launch` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchOpts {
    pub path: String,
    pub procs: usize,
    pub seed: u64,
    pub output: Option<String>,
    pub quiet: bool,
    pub transport: TransportKind,
    pub checkpoint_every: usize,
    pub max_retries: usize,
    /// Per-collective deadline for the workers, milliseconds.
    pub timeout_ms: u64,
    /// Chaos hook: SIGKILL rank R after MS milliseconds (first attempt
    /// only) — `--kill-rank R@MS`.
    pub kill_rank: Option<(usize, u64)>,
    /// Rendezvous directory override (default: a fresh temp dir).
    pub dir: Option<String>,
    /// Intra-rank worker threads per rank process (bit-identical for
    /// every value; see `DistributedConfig::threads`).
    pub threads: usize,
    /// Out-of-core mode: read per-rank binary shards `shard-R.snap` from
    /// this directory instead of parsing the `path` edge list, so the
    /// global graph is never materialized in any single process.
    pub graph_shard_dir: Option<String>,
    /// Workers open their shard demand-paged over a block cache instead
    /// of loading it eagerly (bit-identical either way).
    pub paged: bool,
    /// Paged mode: cache block size in bytes (0 = library default).
    pub block_bytes: usize,
    /// Paged mode: cache capacity in blocks (0 = library default).
    pub cache_blocks: usize,
}

/// Parsed hidden `_rank` invocation (one worker process).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerOpts {
    pub rank: usize,
    pub procs: usize,
    pub seed: u64,
    pub dir: String,
    pub transport: TransportKind,
    pub checkpoint_every: usize,
    pub timeout_ms: u64,
    /// Intra-rank worker threads (forwarded from `launch --threads`).
    pub threads: usize,
    /// Directory holding this rank's `shard-R.snap`.
    pub graph_shard_dir: String,
    /// Forwarded from `launch --paged`.
    pub paged: bool,
    /// Forwarded from `launch --block-bytes`.
    pub block_bytes: usize,
    /// Forwarded from `launch --cache-blocks`.
    pub cache_blocks: usize,
}

/// The `--paged`/`--block-bytes`/`--cache-blocks` triple as a cache
/// config (`None` = eager load).
fn page_cache(paged: bool, block_bytes: usize, cache_blocks: usize) -> Option<PageCacheConfig> {
    paged.then(|| {
        let mut c = PageCacheConfig::default();
        if block_bytes > 0 {
            c.block_bytes = block_bytes;
        }
        if cache_blocks > 0 {
            c.capacity_blocks = cache_blocks;
        }
        c
    })
}

fn sock_dir(dir: &Path) -> PathBuf {
    dir.join("sock")
}

fn ckpt_dir(dir: &Path) -> PathBuf {
    dir.join("ckpt")
}

fn result_path(dir: &Path) -> PathBuf {
    dir.join("result.json")
}

fn diag_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank-{rank}.diag.json"))
}

fn socket_config(o_transport: TransportKind, dir: &Path, timeout_ms: u64) -> SocketConfig {
    let mut cfg = match o_transport {
        TransportKind::Uds => SocketConfig::uds(sock_dir(dir)),
        TransportKind::Tcp { base_port } => SocketConfig::tcp(base_port),
    };
    cfg.timeout = Duration::from_millis(timeout_ms);
    // Keep the liveness window responsive relative to the deadline.
    cfg.heartbeat = Duration::from_millis((timeout_ms / 8).clamp(25, 250));
    cfg.setup_timeout = setup_window(timeout_ms);
    cfg
}

/// Bootstrap allowance, shared by the workers (their setup deadline) and
/// the launcher (its post-failure grace period, which must outlast it so
/// a bootstrap-blocked survivor gets to write its own diagnostic).
fn setup_window(timeout_ms: u64) -> Duration {
    Duration::from_millis(timeout_ms.saturating_mul(4).max(4_000))
}

fn distributed_config(
    procs: usize,
    seed: u64,
    checkpoint_every: usize,
    threads: usize,
) -> DistributedConfig {
    DistributedConfig {
        nranks: procs,
        seed,
        threads: threads.max(1),
        recovery: RecoveryConfig {
            checkpoint_every,
            ..Default::default()
        },
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Worker (`dinfomap _rank ...`)
// ---------------------------------------------------------------------

/// Run one rank. Returns the process exit code.
pub fn run_worker(o: WorkerOpts) -> i32 {
    match worker_inner(&o) {
        Ok(()) => 0,
        Err(WorkerFailure::Transport) => EXIT_TRANSPORT_FAULT,
        Err(WorkerFailure::Other(msg)) => {
            eprintln!("rank {}: {msg}", o.rank);
            1
        }
    }
}

enum WorkerFailure {
    /// Structured transport fault; diagnostic JSON already written.
    Transport,
    Other(String),
}

fn worker_inner(o: &WorkerOpts) -> Result<(), WorkerFailure> {
    let dir = PathBuf::from(&o.dir);
    let path = shard_path(Path::new(&o.graph_shard_dir), o.rank);
    let header = read_header(&path)
        .map_err(|e| WorkerFailure::Other(format!("cannot read {}: {e}", path.display())))?;
    let cache = page_cache(o.paged, o.block_bytes, o.cache_blocks);
    let graph = GraphSnapshotStore::open(&path, cache)
        .map_err(|e| WorkerFailure::Other(format!("cannot open {}: {e}", path.display())))?;
    let cfg = distributed_config(o.procs, o.seed, o.checkpoint_every, o.threads);

    // Durable checkpoints when enabled, so a relaunched world resumes;
    // the in-memory store otherwise (no files, bit-identical fast path).
    let store: Box<dyn SnapshotStore> = if o.checkpoint_every > 0 {
        Box::new(
            FileCheckpointStore::open(ckpt_dir(&dir), o.procs, o.seed)
                .map_err(|e| WorkerFailure::Other(format!("checkpoint store: {e}")))?,
        )
    } else {
        Box::new(CheckpointStore::new(o.procs))
    };
    let restored = store.agreed_pos().is_some();

    let scfg = socket_config(o.transport, &dir, o.timeout_ms);
    let transport = SocketTransport::connect(o.rank, o.procs, scfg).map_err(|e| {
        write_diag(&dir, o.rank, "connect", &format!("{e}"));
        WorkerFailure::Transport
    })?;
    let mut comm = Comm::over_transport(Box::new(transport));

    // Transport failures surface as TransportFault panics, which we
    // catch and report as diagnostics — keep the default hook's
    // backtrace for genuine bugs only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<TransportFault>().is_none() {
            default_hook(info);
        }
    }));

    let started = Instant::now();
    // Shard preparation is itself collective (degrees, rebalance, and
    // ghost discovery all cross ranks), so it runs inside the fault
    // boundary.
    let run = catch_unwind(AssertUnwindSafe(|| {
        let program = RankProgram::prepare_shard(cfg, &header, &graph, &mut comm);
        let done = program.run_rank(&mut comm, store.as_ref());
        (program, done)
    }));
    match run {
        Ok((program, done)) => {
            let wall = started.elapsed();
            let stats = comm.finish();
            if let Some((modules, trace, codelength)) = done {
                let recovery = RecoveryReport {
                    attempts: 1,
                    restores: usize::from(restored),
                    checkpoints_committed: store.checkpoints_committed(),
                    degraded: false,
                    failures: Vec::new(),
                };
                let out =
                    program.assemble_output(modules, trace, codelength, vec![stats], recovery);
                write_result(&dir, o, &out, wall)
                    .map_err(|e| WorkerFailure::Other(format!("write result: {e}")))?;
            }
            Ok(())
        }
        Err(payload) => {
            // A transport failure surfaces as a TransportFault panic from
            // inside a blocked collective; anything else is a plain bug.
            let (op, detail) = match payload.downcast_ref::<TransportFault>() {
                Some(f) => (f.op.clone(), format!("{}", f.error)),
                None => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "panic".into());
                    ("run".into(), msg)
                }
            };
            write_diag(&dir, o.rank, &op, &detail);
            eprintln!("rank {}: blocked in {op}: {detail}", o.rank);
            Err(WorkerFailure::Transport)
        }
    }
}

/// `vertex community` lines. `original_ids` maps dense vertex ids back
/// to the edge list's ids; `None` is the identity, because snapshot rows
/// are already keyed by global vertex id.
fn write_assignments(
    path: &str,
    modules: &[u32],
    original_ids: Option<&[u64]>,
) -> Result<(), String> {
    let mut w = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
    );
    writeln!(w, "# vertex community").map_err(|e| e.to_string())?;
    for (dense, &m) in modules.iter().enumerate() {
        let id = original_ids.map_or(dense as u64, |ids| ids[dense]);
        writeln!(w, "{id} {m}").map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

/// Atomic (tmp + rename) so the launcher never reads a torn file.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn write_result(
    dir: &Path,
    o: &WorkerOpts,
    out: &DistributedOutput,
    wall: Duration,
) -> std::io::Result<()> {
    let modeled = CostModel::default().makespan(&out.rank_stats).total;
    let mdl_bits: Vec<u64> = out
        .trace
        .iter()
        .flat_map(|t| t.mdl_series.iter().map(|m| m.to_bits()))
        .collect();
    let total_moves: u64 = out.trace.iter().map(|t| t.moves).sum();
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"dinfomap-launch-result-v1\",\n");
    let _ = writeln!(j, "  \"procs\": {},\n  \"seed\": {},", o.procs, o.seed);
    let _ = writeln!(j, "  \"codelength\": {:e},", out.codelength);
    let _ = writeln!(
        j,
        "  \"codelength_bits\": \"{:016x}\",",
        out.codelength.to_bits()
    );
    let _ = writeln!(j, "  \"num_modules\": {},", out.num_modules());
    let _ = writeln!(j, "  \"total_moves\": {total_moves},");
    j.push_str("  \"mdl_series_bits\": [");
    for (i, b) in mdl_bits.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(j, "\"{b:016x}\"");
    }
    j.push_str("],\n");
    let _ = writeln!(j, "  \"degraded\": {},", out.recovery.degraded);
    let _ = writeln!(j, "  \"restored\": {},", out.recovery.restores > 0);
    let _ = writeln!(
        j,
        "  \"checkpoints_committed\": {},",
        out.recovery.checkpoints_committed
    );
    let _ = writeln!(j, "  \"wall_ms\": {:.3},", wall.as_secs_f64() * 1e3);
    let _ = writeln!(j, "  \"modeled_ms\": {:.6},", modeled * 1e3);
    j.push_str("  \"modules\": [");
    for (i, m) in out.modules.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(j, "{m}");
    }
    j.push_str("]\n}\n");
    write_atomic(&result_path(dir), &j)
}

fn write_diag(dir: &Path, rank: usize, op: &str, detail: &str) {
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"dinfomap-launch-diag-v1\",\n");
    let _ = writeln!(j, "  \"rank\": {rank},");
    let _ = writeln!(j, "  \"op\": {},", json_string(op));
    let _ = write!(j, "  \"detail\": {}\n}}\n", json_string(detail));
    let _ = write_atomic(&diag_path(dir, rank), &j);
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Launcher (`dinfomap launch ...`)
// ---------------------------------------------------------------------

/// Validated launch input. Workers only ever open shards; an edge list
/// stays loaded launcher-side for the report, the id map of the
/// assignment file, and degraded assembly.
enum LaunchSource {
    Edges(io::LoadedGraph),
    /// A user-supplied shard directory and its rank-0 header (only the
    /// headers are read launcher-side).
    Shards(PathBuf, SnapshotHeader),
}

fn resolve_source(o: &LaunchOpts) -> Result<LaunchSource, String> {
    let Some(d) = &o.graph_shard_dir else {
        return io::read_edge_list_file(&o.path)
            .map(LaunchSource::Edges)
            .map_err(|e| format!("cannot read {}: {e}", o.path));
    };
    let abs = std::fs::canonicalize(d).map_err(|e| format!("cannot resolve {d}: {e}"))?;
    // Every rank's shard must exist, agree on the world shape, and come
    // from the same graph before any process is forked: each rank takes
    // the vertex count and the flow normaliser from its own header.
    let totals = |h: &SnapshotHeader| (h.global_vertices, h.global_edges, h.global_weight);
    let mut first: Option<SnapshotHeader> = None;
    for rank in 0..o.procs {
        let path = shard_path(&abs, rank);
        let h = read_header(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if h.nranks != o.procs || h.rank != rank {
            return Err(format!(
                "{}: sharded for rank {}/{} but launching {} procs",
                path.display(),
                h.rank,
                h.nranks,
                o.procs
            ));
        }
        let ((v, e, w), (v0, e0, w0)) = (totals(&h), totals(first.get_or_insert(h)));
        if (v, e, w.to_bits()) != (v0, e0, w0.to_bits()) {
            return Err(format!(
                "{}: shard of a different graph ({v} vertices, {e} edges, weight {w}) \
                 than shard 0 ({v0} vertices, {e0} edges, weight {w0})",
                path.display()
            ));
        }
    }
    Ok(LaunchSource::Shards(abs, first.expect("procs >= 1")))
}

pub fn run_launch(o: LaunchOpts) -> Result<(), String> {
    if o.procs == 0 {
        return Err("launch: --procs must be >= 1".into());
    }
    let source = resolve_source(&o)?;

    let (dir, ephemeral) = match &o.dir {
        Some(d) => (PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("dinfomap-launch-{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(sock_dir(&dir)).map_err(|e| format!("cannot create {dir:?}: {e}"))?;

    // Workers read only shards: an edge list is sharded once here, and
    // every attempt reuses the same files.
    let shard_dir = match &source {
        LaunchSource::Edges(loaded) => {
            let d = dir.join("shards");
            write_shards(&loaded.graph, o.procs, &d).map_err(|e| {
                remove_shards(&d, o.procs);
                format!("cannot write shards into {}: {e}", d.display())
            })?;
            d
        }
        LaunchSource::Shards(abs, _) => abs.clone(),
    };

    let started = Instant::now();
    let attempts_budget = o.max_retries + 1;
    let mut failures: Vec<String> = Vec::new();
    let mut attempts = 0usize;
    let mut restores = 0usize;
    let mut outcome: Result<(), String> = Err("never launched".into());

    for attempt in 0..attempts_budget {
        attempts += 1;
        if attempt > 0 && checkpoint_files_present(&ckpt_dir(&dir)) {
            restores += 1;
        }
        let _ = std::fs::remove_file(result_path(&dir));
        for r in 0..o.procs {
            let _ = std::fs::remove_file(diag_path(&dir, r));
        }
        let kill = if attempt == 0 { o.kill_rank } else { None };
        match run_world_once(&o, &dir, &shard_dir, kill) {
            Ok(()) => {
                outcome = Ok(());
                break;
            }
            Err(msg) => {
                if !o.quiet {
                    eprintln!("attempt {}: {msg}", attempt + 1);
                }
                failures.push(msg.clone());
                outcome = Err(msg);
            }
        }
    }
    let wall = started.elapsed();
    // The launcher's own shards are done with, whatever the outcome.
    let (vertices, edges, original_ids) = match &source {
        LaunchSource::Edges(loaded) => {
            remove_shards(&shard_dir, o.procs);
            let g = &loaded.graph;
            (
                g.num_vertices(),
                g.num_edges(),
                Some(&loaded.original_ids[..]),
            )
        }
        LaunchSource::Shards(_, h) => (h.global_vertices, h.global_edges, None),
    };
    let finish = |res: Result<(), String>| {
        if ephemeral && res.is_ok() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        res
    };

    match outcome {
        Ok(()) => {
            let report = read_result_summary(&result_path(&dir))?;
            if let Some(out_path) = &o.output {
                write_assignments(out_path, &report.modules, original_ids)?;
            }
            if !o.quiet {
                println!(
                    "distributed Infomap over {} OS processes ({}): {vertices} vertices, {edges} edges",
                    o.procs,
                    match o.transport {
                        TransportKind::Uds => "unix sockets".to_string(),
                        TransportKind::Tcp { base_port } => format!("tcp 127.0.0.1:{base_port}+"),
                    },
                );
                println!("  modules:    {}", report.num_modules);
                println!("  codelength: {:.6} bits", report.codelength);
                println!(
                    "  wall time:  {:.1} ms total, {:.1} ms in the world (modeled {:.3} ms)",
                    wall.as_secs_f64() * 1e3,
                    report.wall_ms,
                    report.modeled_ms
                );
                if attempts > 1 {
                    println!("  recovery:   {attempts} attempt(s), {restores} restore(s)");
                }
            }
            finish(Ok(()))
        }
        Err(last) => {
            // Retries exhausted. Degrade gracefully when checkpoints
            // exist: assemble the best agreed clustering in-process.
            // Degraded assembly re-prepares from the whole graph, which
            // only the edge-list mode has in one place.
            let ckpt = ckpt_dir(&dir);
            let LaunchSource::Edges(loaded) = &source else {
                return finish(Err(format!(
                    "launch failed after {attempts} attempt(s): {last} \
                     (degraded assembly needs edge-list input, not --graph-shard-dir)"
                )));
            };
            if o.checkpoint_every > 0 && checkpoint_files_present(&ckpt) {
                let cfg = distributed_config(o.procs, o.seed, o.checkpoint_every, o.threads);
                // Only the shared scalars are read: build no rank states.
                let program = RankProgram::prepare_ranks(cfg, &loaded.graph, 0..0);
                let store = FileCheckpointStore::open(&ckpt, o.procs, o.seed)
                    .map_err(|e| format!("checkpoint store: {e}"))?;
                let recovery = RecoveryReport {
                    attempts,
                    restores,
                    checkpoints_committed: store.checkpoints_committed(),
                    degraded: true,
                    failures: failures.clone(),
                };
                let out = degraded_output(
                    &store,
                    o.procs,
                    program.one_level,
                    program.original_n,
                    Vec::new(),
                    recovery,
                );
                if !o.quiet {
                    println!(
                        "degraded result after {attempts} attempt(s): {} modules, {:.6} bits (best checkpointed clustering)",
                        out.num_modules(),
                        out.codelength
                    );
                    println!("  last failure: {last}");
                }
                if let Some(out_path) = &o.output {
                    write_assignments(out_path, &out.modules, original_ids)?;
                }
                return finish(Ok(()));
            }
            finish(Err(format!(
                "launch failed after {attempts} attempt(s): {last}"
            )))
        }
    }
}

/// Delete the shards the launcher wrote, then their directory if that
/// leaves it empty: nothing else under the run directory is touched.
fn remove_shards(dir: &Path, procs: usize) {
    for rank in 0..procs {
        let _ = std::fs::remove_file(shard_path(dir, rank));
    }
    let _ = std::fs::remove_dir(dir);
}

/// Spawn one world of `procs` workers and wait for it. `Ok` only when
/// every worker exits 0 and rank 0 published `result.json`.
fn run_world_once(
    o: &LaunchOpts,
    dir: &Path,
    shard_dir: &Path,
    kill: Option<(usize, u64)>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children = Vec::with_capacity(o.procs);
    for rank in 0..o.procs {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("_rank")
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--procs")
            .arg(o.procs.to_string())
            .arg("--graph-shard-dir")
            .arg(shard_dir.as_os_str());
        if o.paged {
            cmd.arg("--paged");
            if o.block_bytes > 0 {
                cmd.arg("--block-bytes").arg(o.block_bytes.to_string());
            }
            if o.cache_blocks > 0 {
                cmd.arg("--cache-blocks").arg(o.cache_blocks.to_string());
            }
        }
        cmd.arg("--seed")
            .arg(o.seed.to_string())
            .arg("--dir")
            .arg(dir.as_os_str())
            .arg("--checkpoint-every")
            .arg(o.checkpoint_every.to_string())
            .arg("--timeout-ms")
            .arg(o.timeout_ms.to_string())
            .arg("--threads")
            .arg(o.threads.to_string());
        if let TransportKind::Tcp { base_port } = o.transport {
            cmd.arg("--transport").arg("tcp");
            cmd.arg("--base-port").arg(base_port.to_string());
        }
        let child = cmd.spawn().map_err(|e| format!("spawn rank {rank}: {e}"))?;
        children.push(Some(child));
    }

    // Poll loop: supervise exits, fire the chaos kill, enforce a hang
    // watchdog well beyond the workers' own deadlines (a worker that
    // trips its collective timeout exits on its own — the watchdog only
    // catches a worker wedged outside the transport).
    let begun = Instant::now();
    let watchdog = Duration::from_millis(o.timeout_ms.saturating_mul(10).max(60_000));
    // Once one worker fails, give the survivors long enough to notice
    // (PeerDead / Timeout — or their own setup deadline if the victim
    // died during bootstrap), write their diagnostics, and exit.
    let grace = setup_window(o.timeout_ms)
        + Duration::from_millis(o.timeout_ms.saturating_mul(2).saturating_add(2_000));
    let mut first_failure: Option<Instant> = None;
    let mut statuses: Vec<Option<std::process::ExitStatus>> = vec![None; o.procs];
    let mut killed = false;

    loop {
        let mut live = 0usize;
        for (rank, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            match child.try_wait() {
                Ok(Some(status)) => {
                    statuses[rank] = Some(status);
                    if !status.success() && first_failure.is_none() {
                        first_failure = Some(Instant::now());
                    }
                    *slot = None;
                }
                Ok(None) => live += 1,
                Err(e) => return Err(format!("wait rank {rank}: {e}")),
            }
        }
        if live == 0 {
            break;
        }
        if let Some((victim, at_ms)) = kill {
            if !killed && begun.elapsed() >= Duration::from_millis(at_ms) {
                if let Some(child) = children.get_mut(victim).and_then(|c| c.as_mut()) {
                    let _ = child.kill(); // SIGKILL: no cleanup, no goodbye
                }
                killed = true;
            }
        }
        let over_grace = first_failure.is_some_and(|t| t.elapsed() > grace);
        if begun.elapsed() > watchdog || over_grace {
            for slot in children.iter_mut() {
                if let Some(child) = slot.as_mut() {
                    let _ = child.kill();
                }
            }
            if begun.elapsed() > watchdog {
                return Err(format!(
                    "watchdog: world still running after {:?}; killed",
                    watchdog
                ));
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut failed: BTreeMap<usize, String> = BTreeMap::new();
    for (rank, status) in statuses.iter().enumerate() {
        let status = status.expect("all children reaped");
        if !status.success() {
            let why = match status.code() {
                Some(EXIT_TRANSPORT_FAULT) => read_diag_summary(dir, rank)
                    .unwrap_or_else(|| "transport fault (no diagnostic)".into()),
                Some(c) => format!("exit code {c}"),
                None => "killed by signal".into(),
            };
            failed.insert(rank, why);
        }
    }
    if failed.is_empty() {
        if result_path(dir).exists() {
            Ok(())
        } else {
            Err("all workers exited 0 but rank 0 published no result".into())
        }
    } else {
        let mut msg = String::from("failed ranks: ");
        for (i, (rank, why)) in failed.iter().enumerate() {
            if i > 0 {
                msg.push_str("; ");
            }
            let _ = write!(msg, "rank {rank}: {why}");
        }
        Err(msg)
    }
}

/// The fields of `result.json` the launcher reports and writes out.
/// Parsed with a purpose-built scanner — the file is machine-written by
/// this same binary, so a `"key": value` scan is exact.
struct ResultSummary {
    codelength: f64,
    num_modules: u64,
    wall_ms: f64,
    modeled_ms: f64,
    /// Every vertex's module, in dense vertex order.
    modules: Vec<u32>,
}

/// A scalar value (unquoted), or a whole `[...]` list.
fn json_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '\n', '}']).unwrap_or(rest.len())
    };
    Some(rest[..end].trim().trim_matches('"'))
}

fn read_result_summary(path: &Path) -> Result<ResultSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let bits = json_field(&text, "codelength_bits")
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("result.json: missing codelength_bits")?;
    let field = |key: &str| -> Result<f64, String> {
        json_field(&text, key)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("result.json: missing {key}"))
    };
    Ok(ResultSummary {
        codelength: f64::from_bits(bits),
        num_modules: field("num_modules")? as u64,
        wall_ms: field("wall_ms")?,
        modeled_ms: field("modeled_ms")?,
        modules: json_field(&text, "modules")
            .and_then(|list| {
                let list = list.trim_matches(['[', ']']);
                list.split(',')
                    .filter(|m| !m.is_empty())
                    .map(|m| m.parse().ok())
                    .collect()
            })
            .ok_or("result.json: missing modules")?,
    })
}

fn read_diag_summary(dir: &Path, rank: usize) -> Option<String> {
    let text = std::fs::read_to_string(diag_path(dir, rank)).ok()?;
    let op = json_field(&text, "op")?.to_string();
    let detail = json_field(&text, "detail")?.to_string();
    Some(format!("blocked in {op}: {detail}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_scanner_reads_machine_written_fields() {
        let text = "{\n  \"schema\": \"x\",\n  \"codelength_bits\": \"4008000000000000\",\n  \"num_modules\": 7,\n  \"wall_ms\": 12.5,\n  \"modeled_ms\": 0.25,\n  \"modules\": [1,2]\n}\n";
        assert_eq!(json_field(text, "num_modules"), Some("7"));
        assert_eq!(json_field(text, "wall_ms"), Some("12.5"));
        assert_eq!(
            json_field(text, "codelength_bits"),
            Some("4008000000000000")
        );
        let s = read_result_summary_from(text).unwrap();
        assert_eq!(s.codelength, 3.0);
        assert_eq!(s.num_modules, 7);
        assert_eq!(s.modules, [1, 2]);
    }

    fn read_result_summary_from(text: &str) -> Result<ResultSummary, String> {
        let dir = std::env::temp_dir().join(format!("dinf-launch-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("result.json");
        std::fs::write(&p, text).unwrap();
        let r = read_result_summary(&p);
        let _ = std::fs::remove_dir_all(&dir);
        r
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn diag_files_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dinf-launch-diag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_diag(
            &dir,
            2,
            "exchange seq=9",
            "peer 1 dead: heartbeat lapsed 2000ms",
        );
        let s = read_diag_summary(&dir, 2).unwrap();
        assert!(s.contains("exchange seq=9"), "{s}");
        assert!(s.contains("peer 1 dead"), "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

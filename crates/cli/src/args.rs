//! Hand-rolled argument parsing (no external dependencies): a small,
//! explicit state machine over `--flag value` pairs.

use crate::launch::{LaunchOpts, TransportKind, WorkerOpts};

/// Printed on parse errors and `--help`.
pub const USAGE: &str = "\
dinfomap — community detection with (distributed) Infomap

USAGE:
  dinfomap cluster <edges.txt> [options]   detect communities
  dinfomap launch <edges.txt> [options]    detect communities with real OS processes
  dinfomap launch --graph-shard-dir D ...  same, out-of-core from binary shards
  dinfomap partition <edges.txt> [options] analyze a partitioning
  dinfomap generate <what> [options]       write a synthetic graph
  dinfomap snapshot <edges.txt> [options]  convert an edge list to binary snapshot(s)
  dinfomap info <edges.txt>                print graph statistics

CLUSTER OPTIONS:
  --algorithm seq|relax|dist|gossip   algorithm (default: dist)
  --ranks N                           simulated ranks for dist/gossip (default 8)
  --threads N                         worker threads: relax workers, or dist
                                      intra-rank sweep slices (default 4; dist
                                      results are bit-identical for every N)
  --seed S                            RNG seed (default 0)
  --output FILE                       write `vertex community` lines
  --quiet                             suppress the run report
  --fault-plan SPEC                   dist only: inject faults, e.g.
                                      \"seed=1;crash=1@200;drop=0.01;straggler=0x2\"
  --checkpoint-every N                dist only: checkpoint every N rounds (default 0 = off)
  --max-retries N                     dist only: retries from the last checkpoint (default 3)

LAUNCH OPTIONS (distributed Infomap over the socket transport,
one OS process per rank; bit-identical to `cluster --algorithm dist`):
  --procs N                           worker processes (default 4)
  --threads N                         intra-rank sweep threads per worker
                                      (default 1; bit-identical for every N)
  --seed S                            RNG seed (default 0)
  --output FILE                       write `vertex community` lines
  --quiet                             suppress the run report
  --transport uds|tcp                 socket family (default uds)
  --base-port P                       tcp only: listen on 127.0.0.1:P+rank
  --checkpoint-every N                durable checkpoints every N rounds (0 = off)
  --max-retries N                     world relaunches after a failure (default 3)
  --timeout-ms MS                     per-collective deadline (default 5000)
  --kill-rank R@MS                    chaos: SIGKILL rank R after MS (first attempt)
  --dir D                             rendezvous directory (default: temp dir)
  --graph-shard-dir D                 out-of-core: each rank reads its own
                                      `shard-R.snap` from D; no edge list needed
  --paged                             demand-page each worker's shard over a
                                      block cache instead of loading eagerly
  --block-bytes N                     paged: cache block size (default 65536)
  --cache-blocks N                    paged: cache capacity in blocks (default 64)

SNAPSHOT OPTIONS:
  --out PATH                          output snapshot file, or the shard
                                      directory with --shards (required)
  --shards N                          write N per-rank shards `shard-R.snap`
                                      into PATH instead of one full snapshot

PARTITION OPTIONS:
  --ranks N                           world size (default 8)
  --strategy 1d|block|delegate        strategy (default delegate)

GENERATE <what>:
  lfr                                 LFR benchmark (use --n, --mu)
  amazon|dblp|ndweb|youtube|livejournal|uk2005|webbase|friendster|uk2007
                                      Table 1 stand-ins (use --scale)
  --n N --mu F --scale F --seed S --output FILE --truth FILE
  --shards N --out-dir D              stream straight into N snapshot shards
                                      under D (bounded memory; no edge list)";

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Cluster {
        path: String,
        algorithm: Algorithm,
        ranks: usize,
        threads: usize,
        seed: u64,
        output: Option<String>,
        quiet: bool,
        /// Fault-injection spec for the simulated fabric (dist only).
        fault_plan: Option<String>,
        /// Checkpoint interval in inner rounds (dist only, 0 = off).
        checkpoint_every: usize,
        /// Retry budget when a fault plan is active (dist only).
        max_retries: usize,
    },
    Partition {
        path: String,
        ranks: usize,
        strategy: Strategy,
    },
    Generate {
        what: String,
        n: usize,
        mu: f64,
        scale: f64,
        seed: u64,
        output: Option<String>,
        truth: Option<String>,
        /// Stream into this many snapshot shards (0 = in-memory path).
        shards: usize,
        /// Shard directory for `--shards` mode.
        out_dir: Option<String>,
    },
    /// `snapshot`: edge list → binary snapshot file or shard directory.
    Snapshot {
        path: String,
        out: String,
        /// 0 = one full snapshot file; N ≥ 1 = N per-rank shards.
        shards: usize,
    },
    Info {
        path: String,
    },
    /// `launch`: the distributed pipeline over real OS processes.
    Launch(LaunchOpts),
    /// `_rank`: hidden worker subcommand, spawned by `launch`.
    RankWorker(WorkerOpts),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    Sequential,
    RelaxMap,
    Distributed,
    Gossip,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    OneD,
    Block,
    Delegate,
}

/// Parse argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    if sub == "--help" || sub == "-h" || sub == "help" {
        return Err(String::new());
    }
    match sub.as_str() {
        "cluster" => {
            let path = it.next().ok_or("cluster: missing <edges.txt>")?.clone();
            let mut algorithm = Algorithm::Distributed;
            let mut ranks = 8usize;
            let mut threads = 4usize;
            let mut seed = 0u64;
            let mut output = None;
            let mut quiet = false;
            let mut fault_plan = None;
            let mut checkpoint_every = 0usize;
            let mut max_retries = 3usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--algorithm" => {
                        algorithm = match next(&mut it, flag)?.as_str() {
                            "seq" | "sequential" => Algorithm::Sequential,
                            "relax" | "relaxmap" => Algorithm::RelaxMap,
                            "dist" | "distributed" => Algorithm::Distributed,
                            "gossip" => Algorithm::Gossip,
                            other => return Err(format!("unknown algorithm {other:?}")),
                        }
                    }
                    "--ranks" => ranks = num(&mut it, flag)?,
                    "--threads" => threads = num(&mut it, flag)?,
                    "--seed" => seed = num(&mut it, flag)?,
                    "--output" => output = Some(next(&mut it, flag)?),
                    "--quiet" => quiet = true,
                    "--fault-plan" => fault_plan = Some(next(&mut it, flag)?),
                    "--checkpoint-every" => checkpoint_every = num(&mut it, flag)?,
                    "--max-retries" => max_retries = num(&mut it, flag)?,
                    other => return Err(format!("cluster: unknown flag {other:?}")),
                }
            }
            Ok(Command::Cluster {
                path,
                algorithm,
                ranks,
                threads,
                seed,
                output,
                quiet,
                fault_plan,
                checkpoint_every,
                max_retries,
            })
        }
        "partition" => {
            let path = it.next().ok_or("partition: missing <edges.txt>")?.clone();
            let mut ranks = 8usize;
            let mut strategy = Strategy::Delegate;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--ranks" => ranks = num(&mut it, flag)?,
                    "--strategy" => {
                        strategy = match next(&mut it, flag)?.as_str() {
                            "1d" | "rr" => Strategy::OneD,
                            "block" => Strategy::Block,
                            "delegate" => Strategy::Delegate,
                            other => return Err(format!("unknown strategy {other:?}")),
                        }
                    }
                    other => return Err(format!("partition: unknown flag {other:?}")),
                }
            }
            Ok(Command::Partition {
                path,
                ranks,
                strategy,
            })
        }
        "generate" => {
            let what = it.next().ok_or("generate: missing <what>")?.clone();
            let mut n = 1000usize;
            let mut mu = 0.3f64;
            let mut scale = 0.1f64;
            let mut seed = 0u64;
            let mut output = None;
            let mut truth = None;
            let mut shards = 0usize;
            let mut out_dir = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--n" => n = num(&mut it, flag)?,
                    "--mu" => mu = num(&mut it, flag)?,
                    "--scale" => scale = num(&mut it, flag)?,
                    "--seed" => seed = num(&mut it, flag)?,
                    "--output" => output = Some(next(&mut it, flag)?),
                    "--truth" => truth = Some(next(&mut it, flag)?),
                    "--shards" => shards = num(&mut it, flag)?,
                    "--out-dir" => out_dir = Some(next(&mut it, flag)?),
                    other => return Err(format!("generate: unknown flag {other:?}")),
                }
            }
            if (shards > 0) != out_dir.is_some() {
                return Err("generate: --shards and --out-dir go together".into());
            }
            Ok(Command::Generate {
                what,
                n,
                mu,
                scale,
                seed,
                output,
                truth,
                shards,
                out_dir,
            })
        }
        "snapshot" => {
            let path = it.next().ok_or("snapshot: missing <edges.txt>")?.clone();
            let mut out = None;
            let mut shards = 0usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--out" => out = Some(next(&mut it, flag)?),
                    "--shards" => shards = num(&mut it, flag)?,
                    other => return Err(format!("snapshot: unknown flag {other:?}")),
                }
            }
            let out = out.ok_or("snapshot: --out is required")?;
            Ok(Command::Snapshot { path, out, shards })
        }
        "info" => {
            let path = it.next().ok_or("info: missing <edges.txt>")?.clone();
            Ok(Command::Info { path })
        }
        "launch" => {
            // The positional edge list is optional in shard mode, where
            // `--graph-shard-dir` supplies the input instead.
            let mut it = it.peekable();
            let path = match it.peek() {
                Some(first) if !first.starts_with('-') => it.next().unwrap().clone(),
                _ => String::new(),
            };
            let mut o = LaunchOpts {
                path,
                procs: 4,
                seed: 0,
                output: None,
                quiet: false,
                transport: TransportKind::Uds,
                checkpoint_every: 0,
                max_retries: 3,
                timeout_ms: 5000,
                kill_rank: None,
                dir: None,
                threads: 1,
                graph_shard_dir: None,
                paged: false,
                block_bytes: 0,
                cache_blocks: 0,
            };
            let mut base_port: Option<u16> = None;
            let mut tcp = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--procs" => o.procs = num(&mut it, flag)?,
                    "--threads" => o.threads = num(&mut it, flag)?,
                    "--seed" => o.seed = num(&mut it, flag)?,
                    "--output" => o.output = Some(next(&mut it, flag)?),
                    "--quiet" => o.quiet = true,
                    "--transport" => tcp = parse_transport(&next(&mut it, flag)?)?,
                    "--base-port" => base_port = Some(num(&mut it, flag)?),
                    "--checkpoint-every" => o.checkpoint_every = num(&mut it, flag)?,
                    "--max-retries" => o.max_retries = num(&mut it, flag)?,
                    "--timeout-ms" => o.timeout_ms = num(&mut it, flag)?,
                    "--kill-rank" => o.kill_rank = Some(parse_kill(&next(&mut it, flag)?)?),
                    "--dir" => o.dir = Some(next(&mut it, flag)?),
                    "--graph-shard-dir" => o.graph_shard_dir = Some(next(&mut it, flag)?),
                    "--paged" => o.paged = true,
                    "--block-bytes" => o.block_bytes = num(&mut it, flag)?,
                    "--cache-blocks" => o.cache_blocks = num(&mut it, flag)?,
                    other => return Err(format!("launch: unknown flag {other:?}")),
                }
            }
            if o.path.is_empty() == o.graph_shard_dir.is_none() {
                return Err("launch: give exactly one of <edges.txt> or --graph-shard-dir".into());
            }
            o.transport = resolve_transport(tcp, base_port)?;
            Ok(Command::Launch(o))
        }
        "_rank" => {
            let mut o = WorkerOpts {
                rank: usize::MAX,
                procs: 0,
                seed: 0,
                dir: String::new(),
                transport: TransportKind::Uds,
                checkpoint_every: 0,
                timeout_ms: 5000,
                threads: 1,
                graph_shard_dir: String::new(),
                paged: false,
                block_bytes: 0,
                cache_blocks: 0,
            };
            let mut base_port: Option<u16> = None;
            let mut tcp = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--rank" => o.rank = num(&mut it, flag)?,
                    "--procs" => o.procs = num(&mut it, flag)?,
                    "--threads" => o.threads = num(&mut it, flag)?,
                    "--seed" => o.seed = num(&mut it, flag)?,
                    "--dir" => o.dir = next(&mut it, flag)?,
                    "--transport" => tcp = parse_transport(&next(&mut it, flag)?)?,
                    "--base-port" => base_port = Some(num(&mut it, flag)?),
                    "--checkpoint-every" => o.checkpoint_every = num(&mut it, flag)?,
                    "--timeout-ms" => o.timeout_ms = num(&mut it, flag)?,
                    "--graph-shard-dir" => o.graph_shard_dir = next(&mut it, flag)?,
                    "--paged" => o.paged = true,
                    "--block-bytes" => o.block_bytes = num(&mut it, flag)?,
                    "--cache-blocks" => o.cache_blocks = num(&mut it, flag)?,
                    other => return Err(format!("_rank: unknown flag {other:?}")),
                }
            }
            if o.rank == usize::MAX
                || o.procs == 0
                || o.dir.is_empty()
                || o.graph_shard_dir.is_empty()
            {
                return Err(
                    "_rank: --rank, --procs, --dir and --graph-shard-dir are required".into(),
                );
            }
            o.transport = resolve_transport(tcp, base_port)?;
            Ok(Command::RankWorker(o))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// `--transport` value → is it tcp?
fn parse_transport(raw: &str) -> Result<bool, String> {
    match raw {
        "uds" | "unix" => Ok(false),
        "tcp" => Ok(true),
        other => Err(format!("unknown transport {other:?}")),
    }
}

fn resolve_transport(tcp: bool, base_port: Option<u16>) -> Result<TransportKind, String> {
    match (tcp, base_port) {
        (false, None) => Ok(TransportKind::Uds),
        (false, Some(_)) => Err("--base-port requires --transport tcp".into()),
        (true, Some(base_port)) => Ok(TransportKind::Tcp { base_port }),
        (true, None) => Err("--transport tcp requires --base-port".into()),
    }
}

/// `--kill-rank R@MS`.
fn parse_kill(raw: &str) -> Result<(usize, u64), String> {
    let (rank, at) = raw
        .split_once('@')
        .ok_or_else(|| format!("--kill-rank wants R@MS, got {raw:?}"))?;
    Ok((
        rank.parse()
            .map_err(|_| format!("--kill-rank: bad rank {rank:?}"))?,
        at.parse()
            .map_err(|_| format!("--kill-rank: bad delay {at:?}"))?,
    ))
}

fn next<'a, I: Iterator<Item = &'a String>>(it: &mut I, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn num<'a, T: std::str::FromStr, I: Iterator<Item = &'a String>>(
    it: &mut I,
    flag: &str,
) -> Result<T, String> {
    let raw = next(it, flag)?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_cluster_defaults() {
        let cmd = parse(&argv("cluster g.txt")).unwrap();
        assert_eq!(
            cmd,
            Command::Cluster {
                path: "g.txt".into(),
                algorithm: Algorithm::Distributed,
                ranks: 8,
                threads: 4,
                seed: 0,
                output: None,
                quiet: false,
                fault_plan: None,
                checkpoint_every: 0,
                max_retries: 3,
            }
        );
    }

    #[test]
    fn parses_cluster_flags() {
        let cmd = parse(&argv(
            "cluster g.txt --algorithm seq --ranks 16 --seed 7 --output out.txt --quiet",
        ))
        .unwrap();
        match cmd {
            Command::Cluster {
                algorithm,
                ranks,
                seed,
                output,
                quiet,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::Sequential);
                assert_eq!(ranks, 16);
                assert_eq!(seed, 7);
                assert_eq!(output.as_deref(), Some("out.txt"));
                assert!(quiet);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_fault_and_recovery_flags() {
        let cmd = parse(&argv(
            "cluster g.txt --fault-plan seed=1;crash=1@200 --checkpoint-every 2 --max-retries 5",
        ))
        .unwrap();
        match cmd {
            Command::Cluster {
                fault_plan,
                checkpoint_every,
                max_retries,
                ..
            } => {
                assert_eq!(fault_plan.as_deref(), Some("seed=1;crash=1@200"));
                assert_eq!(checkpoint_every, 2);
                assert_eq!(max_retries, 5);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_flags_and_algorithms() {
        assert!(parse(&argv("cluster g.txt --bogus 1")).is_err());
        assert!(parse(&argv("cluster g.txt --algorithm magic")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parses_launch_threads() {
        let cmd = parse(&argv("launch g.txt --procs 2 --threads 4")).unwrap();
        match cmd {
            Command::Launch(o) => {
                assert_eq!(o.procs, 2);
                assert_eq!(o.threads, 4);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Workers default to 1 and accept the forwarded flag.
        let cmd = parse(&argv(
            "_rank --rank 0 --procs 2 --graph-shard-dir s --dir d --threads 4",
        ))
        .unwrap();
        match cmd {
            Command::RankWorker(o) => assert_eq!(o.threads, 4),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_shard_mode_launch() {
        let cmd = parse(&argv(
            "launch --graph-shard-dir shards --procs 3 --paged --block-bytes 4096 --cache-blocks 16",
        ))
        .unwrap();
        match cmd {
            Command::Launch(o) => {
                assert!(o.path.is_empty());
                assert_eq!(o.graph_shard_dir.as_deref(), Some("shards"));
                assert_eq!(o.procs, 3);
                assert!(o.paged);
                assert_eq!(o.block_bytes, 4096);
                assert_eq!(o.cache_blocks, 16);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Exactly one input: neither and both are errors.
        assert!(parse(&argv("launch --procs 2")).is_err());
        assert!(parse(&argv("launch g.txt --graph-shard-dir shards")).is_err());
        // Workers accept the forwarded shard flags.
        let cmd = parse(&argv(
            "_rank --rank 1 --procs 2 --dir d --graph-shard-dir shards --paged",
        ))
        .unwrap();
        match cmd {
            Command::RankWorker(o) => {
                assert_eq!(o.graph_shard_dir, "shards");
                assert!(o.paged);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse(&argv("_rank --rank 1 --procs 2 --dir d")),
            Err("_rank: --rank, --procs, --dir and --graph-shard-dir are required".into())
        );
        // Workers read only shards and never write the assignment file.
        assert_eq!(
            parse(&argv("_rank --rank 0 --procs 2 --dir d --graph g.txt")),
            Err("_rank: unknown flag \"--graph\"".into())
        );
        assert_eq!(
            parse(&argv(
                "_rank --rank 0 --procs 2 --dir d --graph-shard-dir s --output f"
            )),
            Err("_rank: unknown flag \"--output\"".into())
        );
    }

    #[test]
    fn parses_snapshot_and_sharded_generate() {
        let cmd = parse(&argv("snapshot g.txt --out g.snap")).unwrap();
        assert_eq!(
            cmd,
            Command::Snapshot {
                path: "g.txt".into(),
                out: "g.snap".into(),
                shards: 0,
            }
        );
        let cmd = parse(&argv("snapshot g.txt --out shards --shards 4")).unwrap();
        match cmd {
            Command::Snapshot { shards, .. } => assert_eq!(shards, 4),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("snapshot g.txt")).is_err(), "--out is required");
        let cmd = parse(&argv("generate uk2007 --scale 2 --shards 8 --out-dir d")).unwrap();
        match cmd {
            Command::Generate {
                shards, out_dir, ..
            } => {
                assert_eq!(shards, 8);
                assert_eq!(out_dir.as_deref(), Some("d"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("generate lfr --shards 2")).is_err());
        assert!(parse(&argv("generate lfr --out-dir d")).is_err());
    }

    #[test]
    fn parses_partition_and_generate() {
        let cmd = parse(&argv("partition g.txt --ranks 32 --strategy block")).unwrap();
        assert_eq!(
            cmd,
            Command::Partition {
                path: "g.txt".into(),
                ranks: 32,
                strategy: Strategy::Block
            }
        );
        let cmd = parse(&argv("generate lfr --n 500 --mu 0.4 --output g.txt")).unwrap();
        match cmd {
            Command::Generate {
                what,
                n,
                mu,
                output,
                ..
            } => {
                assert_eq!(what, "lfr");
                assert_eq!(n, 500);
                assert!((mu - 0.4).abs() < 1e-12);
                assert_eq!(output.as_deref(), Some("g.txt"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }
}

//! End-to-end launch: real OS worker processes, each reading only its
//! own binary shard (eager or demand-paged, user-supplied or written by
//! the launcher from an edge list), must reproduce the in-process thread
//! world bit-for-bit — codelength, per-round MDL series, and the final
//! assignment.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::generators::{lfr_like, LfrParams};
use infomap_graph::io::read_edge_list_file;
use infomap_graph::snapshot::{shard_path, write_shards};

const BIN: &str = env!("CARGO_BIN_EXE_dinfomap");
const WATCHDOG: Duration = Duration::from_secs(120);

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dinf-shards-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_guarded(args: &[&str]) -> (bool, String, String) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dinfomap");
    let started = Instant::now();
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                let out = child.wait_with_output().expect("output");
                return (
                    status.success(),
                    String::from_utf8_lossy(&out.stdout).into_owned(),
                    String::from_utf8_lossy(&out.stderr).into_owned(),
                );
            }
            None if started.elapsed() > WATCHDOG => {
                let _ = child.kill();
                panic!("dinfomap {args:?} hung past {WATCHDOG:?}");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Pull the hex-encoded bit-pattern fields out of a worker-written
/// `result.json` (machine-written by this same binary; a scan is exact).
fn result_bits(dir: &std::path::Path) -> (u64, Vec<u64>) {
    let text = std::fs::read_to_string(dir.join("result.json")).expect("result.json");
    let find = |key: &str| {
        let needle = format!("\"{key}\":");
        let at = text.find(&needle).unwrap() + needle.len();
        let rest = text[at..].trim_start();
        let end = rest.find(['\n', '}']).unwrap();
        rest[..end].trim().trim_end_matches(',').to_string()
    };
    let codelength = u64::from_str_radix(find("codelength_bits").trim_matches('"'), 16).unwrap();
    let series = find("mdl_series_bits");
    let series = series.trim_start_matches('[').trim_end_matches(']');
    let mdl = series
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| u64::from_str_radix(s.trim().trim_matches('"'), 16).unwrap())
        .collect();
    (codelength, mdl)
}

#[test]
fn paged_shard_launch_is_bit_identical_to_thread_world() {
    let dir = tmpdir("paged");
    let (g, _) = lfr_like(
        LfrParams {
            n: 300,
            mu: 0.25,
            ..Default::default()
        },
        9,
    );
    let procs = 3usize;
    let seed = 5u64;
    let shard_dir = dir.join("shards");
    write_shards(&g, procs, &shard_dir).expect("write shards");

    // In-process reference on the same labels the shards carry (snapshot
    // rows are keyed by global vertex id, so no relabeling happens).
    let reference = DistributedInfomap::new(DistributedConfig {
        nranks: procs,
        seed,
        ..Default::default()
    })
    .run(&g);

    let out_path = dir.join("shard.txt");
    let rendezvous = dir.join("world");
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        "--graph-shard-dir",
        shard_dir.to_str().unwrap(),
        "--procs",
        "3",
        "--seed",
        "5",
        "--paged",
        "--block-bytes",
        "256",
        "--cache-blocks",
        "8",
        "--timeout-ms",
        "8000",
        "--dir",
        rendezvous.to_str().unwrap(),
        "--output",
        out_path.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(ok, "shard-mode launch failed:\n{stderr}");

    let (codelength, mdl) = result_bits(&rendezvous);
    assert_eq!(
        codelength,
        reference.codelength.to_bits(),
        "codelength diverged from the thread world"
    );
    let ref_mdl: Vec<u64> = reference.mdl_series().iter().map(|m| m.to_bits()).collect();
    assert_eq!(mdl, ref_mdl, "MDL series diverged from the thread world");

    let text = std::fs::read_to_string(&out_path).expect("assignment file");
    let mut got = vec![u32::MAX; g.num_vertices()];
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let v: usize = parts.next().unwrap().parse().unwrap();
        got[v] = parts.next().unwrap().parse().unwrap();
    }
    assert_eq!(got, reference.modules, "assignment diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_launch_rejects_a_mismatched_world_size() {
    let dir = tmpdir("mismatch");
    let (g, _) = lfr_like(
        LfrParams {
            n: 120,
            ..Default::default()
        },
        3,
    );
    let shard_dir = dir.join("shards");
    write_shards(&g, 2, &shard_dir).expect("write shards");
    // Sharded for 2 ranks, launched with 4: the launcher must refuse
    // before forking anything.
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        "--graph-shard-dir",
        shard_dir.to_str().unwrap(),
        "--procs",
        "4",
        "--quiet",
    ]);
    assert!(!ok, "mismatched shard count must fail");
    assert!(
        stderr.contains("sharded for rank") || stderr.contains("cannot read"),
        "error should explain the mismatch:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_launch_rejects_shards_of_different_graphs() {
    let dir = tmpdir("mixed");
    let lfr = |seed| {
        lfr_like(
            LfrParams {
                n: 120,
                ..Default::default()
            },
            seed,
        )
        .0
    };
    let (a, b) = (lfr(3), lfr(4));
    assert_eq!(a.num_vertices(), b.num_vertices());
    let (shards_a, shards_b) = (dir.join("a"), dir.join("b"));
    write_shards(&a, 2, &shards_a).expect("write shards");
    write_shards(&b, 2, &shards_b).expect("write shards");
    // Same world size, same vertex count: only the graph totals tell the
    // two halves apart.
    let mixed = shard_path(&shards_a, 1);
    std::fs::copy(shard_path(&shards_b, 1), &mixed).unwrap();
    let rendezvous = dir.join("world");
    let (ok, _stdout, stderr) = run_guarded(&[
        "launch",
        "--graph-shard-dir",
        shards_a.to_str().unwrap(),
        "--procs",
        "2",
        "--dir",
        rendezvous.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(!ok, "shards of two graphs must fail");
    assert!(
        stderr.contains("shard-1.snap: shard of a different graph"),
        "error should name the disagreeing shard:\n{stderr}"
    );
    assert!(
        !rendezvous.exists(),
        "the launcher must refuse before creating the world"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `codelength:` line of a run report.
fn codelength_line(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.trim_start().starts_with("codelength:"))
        .unwrap_or_else(|| panic!("no codelength line in:\n{stdout}"))
        .trim()
        .to_string()
}

#[test]
fn edge_list_launch_matches_thread_world_cluster() {
    let dir = tmpdir("edges");
    let graph = dir.join("graph.txt");
    let graph = graph.to_str().unwrap();
    let (ok, _, stderr) =
        run_guarded(&["generate", "uk2007", "--scale", "0.05", "--output", graph]);
    assert!(ok, "generate failed:\n{stderr}");
    // The file's ids are not in dense (first-appearance) order, so an
    // assignment written without the id map would differ.
    let loaded = read_edge_list_file(graph).expect("read back");
    assert!(loaded
        .original_ids
        .iter()
        .enumerate()
        .any(|(dense, &id)| dense as u64 != id));

    let reference = dir.join("cluster.txt");
    let (ok, cluster_stdout, stderr) = run_guarded(&[
        "cluster",
        graph,
        "--algorithm",
        "dist",
        "--ranks",
        "3",
        "--output",
        reference.to_str().unwrap(),
    ]);
    assert!(ok, "cluster failed:\n{stderr}");
    let reference = std::fs::read(&reference).unwrap();

    let paged: &[&str] = &["--paged", "--block-bytes", "256", "--cache-blocks", "8"];
    for (leg, extra) in [("eager", &[][..]), ("paged", paged)] {
        let out = dir.join(format!("{leg}.txt"));
        let rendezvous = dir.join(leg);
        let mut args = vec![
            "launch",
            graph,
            "--procs",
            "3",
            "--timeout-ms",
            "8000",
            "--dir",
            rendezvous.to_str().unwrap(),
            "--output",
            out.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let (ok, stdout, stderr) = run_guarded(&args);
        assert!(ok, "{leg} edge-list launch failed:\n{stderr}");
        assert!(
            std::fs::read(&out).unwrap() == reference,
            "{leg}: assignment file differs from `cluster --algorithm dist`"
        );
        assert_eq!(codelength_line(&stdout), codelength_line(&cluster_stdout));
        assert!(
            !rendezvous.join("shards").exists(),
            "{leg}: the launcher's shards outlived the run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Property tests for the log-round collective layer: for arbitrary world
//! sizes (odd, even, prime, power-of-two) and arbitrary per-rank blobs
//! (including empty ones), a lockstep execution of the Bruck schedule must
//! deliver exactly what a full-mesh exchange would — every rank ends with
//! all p blobs indexed by source rank. The round codec must round-trip
//! arbitrary block lists and reject arbitrary damage without panicking.

use infomap_rng::{check, vec, SplitMix64};
use infomap_transport_socket::collectives::{
    bruck_rounds, ceil_log2, decode_round, encode_round, reindex,
};

const CASES: u32 = 128;
/// Base seed of this suite's property cases.
const SEED: u64 = 0xc0de_0008;

fn bytes(r: &mut SplitMix64, len: std::ops::Range<usize>) -> Vec<u8> {
    vec(r, len, |r| r.gen_range(0..=255u8))
}

/// `count` blocks of `(source id below ids, blob shorter than blob_len)`.
fn blocks(
    r: &mut SplitMix64,
    ids: usize,
    blob_len: usize,
    count: std::ops::Range<usize>,
) -> Vec<(usize, Vec<u8>)> {
    vec(r, count, |r| (r.gen_range(0..ids), bytes(r, 0..blob_len)))
}

/// Execute the schedule for every rank against an in-memory "network":
/// the transport-free ground truth of what the socket ranks compute.
fn run_schedule(blobs: &[Vec<u8>]) -> Vec<Vec<Vec<u8>>> {
    let p = blobs.len();
    let mut have: Vec<Vec<Option<Vec<u8>>>> = (0..p)
        .map(|r| {
            let mut h = vec![None; p];
            h[0] = Some(blobs[r].clone());
            h
        })
        .collect();
    let schedules: Vec<_> = (0..p).map(|r| bruck_rounds(r, p)).collect();
    // Round-major: `plans[r]` is rank r's plan for one round.
    let rounds =
        (0..schedules[0].len()).map(|k| schedules.iter().map(|s| s[k]).collect::<Vec<_>>());
    for plans in rounds {
        // Every rank's frame travels through the wire codec, like the
        // real transport's CollRound payloads.
        let wires: Vec<(usize, Vec<u8>)> = plans
            .iter()
            .enumerate()
            .map(|(r, &plan)| {
                let body = encode_round(
                    plan.round,
                    (0..plan.send_blocks)
                        .map(|v| ((r + v) % p, have[r][v].as_deref().expect("held"))),
                );
                (plan.send_to, body)
            })
            .collect();
        for (dest, body) in wires {
            let plan = plans[dest];
            let (round, blocks) = decode_round(&body).expect("well-formed round");
            assert_eq!(round, plan.round);
            for (i, (gsrc, blob)) in blocks.into_iter().enumerate() {
                assert_eq!(gsrc, (plan.recv_from + i) % p);
                have[dest][plan.recv_at + i] = Some(blob);
            }
        }
    }
    (0..p)
        .map(|r| reindex(r, std::mem::take(&mut have[r])))
        .collect()
}

fn arb_blobs(r: &mut SplitMix64) -> Vec<Vec<u8>> {
    // World sizes 1..=13 cover p=1 (no rounds), odd p, primes, and 8.
    vec(r, 1..=13, |r| bytes(r, 0..96))
}

#[test]
fn logp_delivers_exactly_the_flat_result() {
    check(CASES, SEED, arb_blobs, |blobs| {
        // A full-mesh exchange's contract is trivial: out[s] = blobs[s]
        // at every rank. The Bruck run must match it blob for blob.
        let all = run_schedule(blobs);
        for (rank, out) in all.iter().enumerate() {
            assert_eq!(out.len(), blobs.len(), "rank {}", rank);
            for (s, blob) in out.iter().enumerate() {
                assert_eq!(blob, &blobs[s], "rank {} slot {}", rank, s);
            }
        }
    });
}

#[test]
fn frame_budget_is_ceil_log2_for_every_rank() {
    check(
        CASES,
        SEED,
        |r| r.gen_range(1usize..=64),
        |&p| {
            for r in 0..p {
                assert_eq!(bruck_rounds(r, p).len() as u32, ceil_log2(p));
            }
        },
    );
}

#[test]
fn round_codec_roundtrips_arbitrary_blocks() {
    check(
        CASES,
        SEED,
        |r| (r.next_u64() as u32, blocks(r, 4096, 128, 0..8)),
        |&(round, ref blocks)| {
            let body = encode_round(round, blocks.iter().map(|(s, b)| (*s, b.as_slice())));
            let (r, decoded) = decode_round(&body).expect("roundtrip");
            assert_eq!(r, round);
            assert_eq!(&decoded, blocks);
        },
    );
}

#[test]
fn damaged_round_bodies_never_panic() {
    check(
        CASES,
        SEED,
        |r| {
            (
                blocks(r, 16, 32, 1..4),
                r.next_u64() as usize,
                r.next_u64() as usize,
                r.gen_range(0u8..8),
            )
        },
        |&(ref blocks, cut, flip_pos, flip_bit)| {
            // Truncations and bit flips must come back as Err or as a
            // different (but structurally valid) decode — never a panic,
            // and never trailing silence.
            let body = encode_round(0, blocks.iter().map(|(s, b)| (*s, b.as_slice())));
            let truncated = &body[..cut % body.len()];
            let _ = decode_round(truncated);
            let mut flipped = body.clone();
            let pos = flip_pos % flipped.len();
            flipped[pos] ^= 1 << flip_bit;
            let _ = decode_round(&flipped);
        },
    );
}

//! Log-round collective schedules and the round-block wire codec.
//!
//! A full-mesh exchange would send each rank's contribution to every other
//! rank: p−1 frames out, p−1 frames in, O(p²) frames on the wire per
//! collective. The Bruck (dissemination) allgather needs only
//! ⌈log₂ p⌉ rounds: in round k a rank holding n = 2^k contiguous blocks
//! sends min(n, p−n) of them to the rank n below it and receives as many
//! from the rank n above it, doubling its holdings each round. Works for
//! any p — the final round simply sends the remainder p−n instead of n.
//!
//! Every rank still finishes with **all p blobs, indexed by source rank**,
//! so the local rank-order folds in `Comm::over_transport` run on exactly
//! the same inputs in exactly the same order as in the thread world —
//! bit-identity is preserved by construction. Only the routing differs.
//!
//! Blocks travel in *virtual* order: rank r's buffer position v holds the
//! contribution of global rank (r + v) mod p, so its own blob sits at
//! v = 0 and each round sends a prefix. [`reindex`] maps virtual order
//! back to global rank order at the end.

/// One round of the Bruck allgather from a single rank's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundPlan {
    /// Round index, 0-based.
    pub round: u32,
    /// Global rank we send to: (rank − n) mod p.
    pub send_to: usize,
    /// Global rank we receive from: (rank + n) mod p.
    pub recv_from: usize,
    /// Number of leading virtual blocks to send: min(n, p − n).
    pub send_blocks: usize,
    /// Virtual index where the received blocks land (= n, the block count
    /// held entering this round).
    pub recv_at: usize,
}

/// The full Bruck schedule for `rank` of a `p`-rank world: ⌈log₂ p⌉
/// rounds (empty for p = 1).
pub fn bruck_rounds(rank: usize, p: usize) -> Vec<RoundPlan> {
    assert!(rank < p, "rank {rank} out of range for p={p}");
    let mut rounds = Vec::new();
    let mut held = 1usize;
    let mut round = 0u32;
    while held < p {
        let send_blocks = held.min(p - held);
        rounds.push(RoundPlan {
            round,
            send_to: (rank + p - held) % p,
            recv_from: (rank + held) % p,
            send_blocks,
            recv_at: held,
        });
        held += send_blocks;
        round += 1;
    }
    rounds
}

/// ⌈log₂ p⌉ — the round count of the Bruck schedule, and the per-exchange
/// frame budget each rank must stay within under `logp`.
pub fn ceil_log2(p: usize) -> u32 {
    match p {
        0 | 1 => 0,
        _ => usize::BITS - (p - 1).leading_zeros(),
    }
}

/// Encode one round's relayed blocks into a `CollRound` frame payload:
///
/// ```text
/// u32 round        (LE)
/// u32 nblocks      (LE)
/// nblocks × { u32 global_src, u32 len, len payload bytes }
/// ```
///
/// `blocks` yields `(global_src, blob)` in virtual order.
pub fn encode_round<'a>(round: u32, blocks: impl Iterator<Item = (usize, &'a [u8])>) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&round.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes()); // nblocks, patched below
    let mut n = 0u32;
    for (gsrc, blob) in blocks {
        body.extend_from_slice(&(gsrc as u32).to_le_bytes());
        body.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        body.extend_from_slice(blob);
        n += 1;
    }
    body[4..8].copy_from_slice(&n.to_le_bytes());
    body
}

/// The decoded block list of one round: `(global_src, blob)` pairs in
/// virtual-order position.
pub type RoundBlocks = Vec<(usize, Vec<u8>)>;

/// Decode a `CollRound` payload back into `(round, [(global_src, blob)])`.
/// Any structural defect — truncated header, length overrun, trailing
/// bytes — is an error the transport surfaces as `FrameCorrupt`: a relayed
/// block that was mangled *before* its hop re-framed it fails here even
/// though the per-hop frame checksum was valid.
pub fn decode_round(body: &[u8]) -> Result<(u32, RoundBlocks), String> {
    if body.len() < 8 {
        return Err(format!("round header truncated at {} bytes", body.len()));
    }
    let round = u32::from_le_bytes(body[0..4].try_into().unwrap());
    let nblocks = u32::from_le_bytes(body[4..8].try_into().unwrap()) as usize;
    let mut at = 8usize;
    // A damaged count must not size the allocation: every block takes at
    // least its 8-byte header, so the body bounds how many can follow.
    let mut blocks = Vec::with_capacity(nblocks.min((body.len() - 8) / 8));
    for i in 0..nblocks {
        if body.len() < at + 8 {
            return Err(format!("block {i} header truncated at byte {at}"));
        }
        let gsrc = u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(body[at + 4..at + 8].try_into().unwrap()) as usize;
        at += 8;
        if body.len() < at + len {
            return Err(format!(
                "block {i} claims {len} bytes but only {} remain",
                body.len() - at
            ));
        }
        blocks.push((gsrc, body[at..at + len].to_vec()));
        at += len;
    }
    if at != body.len() {
        return Err(format!(
            "{} trailing bytes after block list",
            body.len() - at
        ));
    }
    Ok((round, blocks))
}

/// Map a completed virtual-order buffer back to global rank order:
/// `out[s] = have[(s − rank) mod p]`.
pub fn reindex(rank: usize, mut have: Vec<Option<Vec<u8>>>) -> Vec<Vec<u8>> {
    let p = have.len();
    (0..p)
        .map(|s| {
            have[(s + p - rank) % p]
                .take()
                .expect("bruck completion invariant: all virtual slots filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One message: `(global source, blob)` blocks.
    type Blocks = Vec<(usize, Vec<u8>)>;

    /// Pure in-memory simulation of the schedule: every rank runs its
    /// rounds against a shared "network" of pending messages. Proves the
    /// schedule is deadlock-free in lockstep and delivers every blob to
    /// every rank in rank order.
    fn simulate(p: usize) -> Vec<Vec<Vec<u8>>> {
        let blob = |r: usize| vec![r as u8; (r % 5) + 1];
        let mut have: Vec<Vec<Option<Vec<u8>>>> = (0..p)
            .map(|r| {
                let mut h = vec![None; p];
                h[0] = Some(blob(r));
                h
            })
            .collect();
        let schedules: Vec<_> = (0..p).map(|r| bruck_rounds(r, p)).collect();
        // Round-major: `plans[r]` is rank r's plan for round k.
        let rounds =
            (0..schedules[0].len()).map(|k| schedules.iter().map(|s| s[k]).collect::<Vec<_>>());
        for (k, plans) in rounds.enumerate() {
            // Collect every rank's round-k message first (no rank may
            // depend on a same-round delivery before sending).
            let msgs: Vec<(usize, Blocks)> = plans
                .iter()
                .enumerate()
                .map(|(r, &plan)| {
                    let blocks = (0..plan.send_blocks)
                        .map(|v| ((r + v) % p, have[r][v].clone().expect("held block")))
                        .collect();
                    (plan.send_to, blocks)
                })
                .collect();
            for (r, (dest, blocks)) in msgs.into_iter().enumerate() {
                let plan = plans[dest];
                assert_eq!(
                    plan.recv_from, r,
                    "round {k}: rank {dest} expects its sender"
                );
                for (i, (gsrc, blob)) in blocks.into_iter().enumerate() {
                    let v = (gsrc + p - dest) % p;
                    assert_eq!(v, plan.recv_at + i, "blocks land densely after recv_at");
                    assert!(have[dest][v].is_none(), "no slot is filled twice");
                    have[dest][v] = Some(blob);
                }
            }
        }
        (0..p)
            .map(|r| reindex(r, std::mem::take(&mut have[r])))
            .collect()
    }

    #[test]
    fn schedule_delivers_all_blobs_for_many_world_sizes() {
        for p in 1..=17 {
            let all = simulate(p);
            for (rank, out) in all.iter().enumerate() {
                assert_eq!(out.len(), p, "p={p} rank={rank}");
                for (s, b) in out.iter().enumerate() {
                    assert_eq!(b, &vec![s as u8; (s % 5) + 1], "p={p} rank={rank} slot={s}");
                }
            }
        }
    }

    #[test]
    fn round_count_is_ceil_log2() {
        for p in 1..=64 {
            assert_eq!(
                bruck_rounds(0, p).len() as u32,
                ceil_log2(p),
                "round count at p={p}"
            );
        }
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn senders_are_distinct_within_an_exchange() {
        // The round stash keys on (seq, src): sound only if no rank hears
        // from the same peer twice within one exchange.
        for p in 2..=33 {
            for r in 0..p {
                let mut froms: Vec<usize> =
                    bruck_rounds(r, p).iter().map(|pl| pl.recv_from).collect();
                froms.sort_unstable();
                froms.dedup();
                assert_eq!(froms.len(), bruck_rounds(r, p).len(), "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn round_codec_roundtrips() {
        let blocks: Vec<(usize, Vec<u8>)> =
            vec![(3, vec![1, 2, 3]), (4, vec![]), (0, vec![9; 100])];
        let body = encode_round(2, blocks.iter().map(|(s, b)| (*s, b.as_slice())));
        let (round, decoded) = decode_round(&body).unwrap();
        assert_eq!(round, 2);
        assert_eq!(decoded, blocks);
    }

    #[test]
    fn round_codec_rejects_mangled_bodies() {
        let body = encode_round(0, [(1usize, &[7u8, 8][..])].into_iter());
        assert!(decode_round(&body[..6]).is_err(), "truncated header");
        let mut trailing = body.clone();
        trailing.push(0xab);
        assert!(decode_round(&trailing).is_err(), "trailing bytes");
        let mut claim = body;
        claim[12..16].copy_from_slice(&u32::MAX.to_le_bytes()); // blob len overrun
        assert!(decode_round(&claim).is_err(), "length overrun");
        let mut count = encode_round(0, [(1usize, &[7u8, 8][..])].into_iter());
        count[4..8].copy_from_slice(&u32::MAX.to_le_bytes()); // block count overrun
        assert!(decode_round(&count).is_err(), "block count overrun");
    }
}

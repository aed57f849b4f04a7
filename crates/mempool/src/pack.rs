//! Wave packing: the batch-forming half of the mempool.
//!
//! [`pack_batch`] turns a set of admitted footprints into a wide,
//! shallow wave schedule. It differs from the pipeline's own
//! [`schedule_waves`] slicing in one decisive way: the pipeline plans
//! whatever batch it is handed, while the packer *chooses* the batch —
//! it colors the whole standing pool, then drains it wave-prefix-wise,
//! so a contended arrival stream (fifty spends of one output, back to
//! back) does not hand the next block fifty one-member waves. The
//! conflicting tail simply stays pooled for later blocks while
//! independent work from elsewhere in the pool fills the current one.
//! (Bids on one request commute: a whole auction packs as
//! CREATEs + REQUEST | BIDs | ACCEPT_BID, and its settlement children
//! as one wave.) Within each wave, members keep their arrival order.

use scdb_core::pipeline::{schedule_waves, Footprint};
use std::borrow::Borrow;

/// A formed batch as positions into the candidate list.
#[derive(Debug, Clone, Default)]
pub struct PackedBatch {
    /// Selected candidate positions, wave-major; within a wave, in
    /// arrival order. This is the batch (= commit) order.
    pub order: Vec<usize>,
    /// Wave sizes; prefix sums partition [`PackedBatch::order`].
    pub wave_sizes: Vec<usize>,
}

impl PackedBatch {
    /// Number of selected candidates.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The wave partition as index ranges into the packed order —
    /// wave `w` is the `w`-th chunk of `order`'s positions — in the
    /// shape [`scdb_core::WaveSchedule`] expects.
    pub fn waves(&self) -> Vec<Vec<usize>> {
        let mut waves = Vec::with_capacity(self.wave_sizes.len());
        let mut start = 0;
        for &size in &self.wave_sizes {
            waves.push((start..start + size).collect());
            start += size;
        }
        waves
    }
}

/// Forms a batch of at most `max_n` candidates from `footprints`
/// (candidates in arrival order): greedy conflict-graph coloring over
/// the whole pool, then a wave-prefix drain.
///
/// Invariants the selection preserves, so the result can be committed
/// through `commit_batch_planned` without re-planning:
///
/// * no two members of one wave have conflicting footprints;
/// * conflicting members keep their arrival order across waves (the
///   earlier arrival wins races, exactly as FIFO would decide them);
/// * the selection is wave-prefix-closed — a member's intra-pool
///   dependencies (which are conflicts, hence earlier waves) are
///   always selected with it.
pub fn pack_batch<F: Borrow<Footprint>>(footprints: &[F], max_n: usize) -> PackedBatch {
    if footprints.is_empty() || max_n == 0 {
        return PackedBatch::default();
    }
    let wave_of = schedule_waves(footprints);
    let wave_count = wave_of.iter().copied().max().unwrap_or(0) + 1;
    let mut waves: Vec<Vec<usize>> = vec![Vec::new(); wave_count];
    for (position, wave) in wave_of.iter().enumerate() {
        // Within a wave the members keep arrival order.
        waves[*wave].push(position);
    }

    let mut packed = PackedBatch::default();
    for wave in &waves {
        let room = max_n - packed.order.len();
        if room == 0 {
            break;
        }
        // A partial take is safe only on the last wave taken: members
        // of one wave never depend on each other, and every earlier
        // wave was taken whole.
        let members = &wave[..wave.len().min(room)];
        packed.wave_sizes.push(members.len());
        packed.order.extend_from_slice(members);
    }
    packed
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_core::pipeline::{footprints_conflict, Access, ConflictKey};

    fn writes(keys: &[ConflictKey]) -> Footprint {
        let mut fp = Footprint::default();
        for key in keys {
            fp.touch(key.clone(), Access::Write);
        }
        fp
    }

    fn spend(tx: &str, idx: u32) -> ConflictKey {
        ConflictKey::Output(tx.to_owned(), idx)
    }

    fn id(tx: &str) -> ConflictKey {
        ConflictKey::Id(tx.to_owned())
    }

    #[test]
    fn contended_pool_packs_wide_not_deep() {
        // Six txs: three pairs of double spends, arriving pair-adjacent
        // (the worst case for FIFO slicing). Packing yields 2 waves of
        // 3, not 6 waves of 1 or 3 waves of 2.
        let footprints: Vec<Footprint> = (0..6)
            .map(|i| writes(&[id(&format!("t{i}")), spend(&format!("src{}", i / 2), 0)]))
            .collect();
        let packed = pack_batch(&footprints, usize::MAX);
        assert_eq!(packed.wave_sizes, vec![3, 3]);
        // No intra-wave conflicts.
        for wave in packed.waves() {
            for (a, &i) in wave.iter().enumerate() {
                for &j in &wave[a + 1..] {
                    let (x, y) = (packed.order[i], packed.order[j]);
                    assert!(!footprints_conflict(&footprints[x], &footprints[y]));
                }
            }
        }
    }

    #[test]
    fn conflicting_members_keep_arrival_order() {
        let footprints = vec![
            writes(&[id("a"), spend("src", 0)]),
            writes(&[id("b"), spend("src", 0)]),
        ];
        let packed = pack_batch(&footprints, usize::MAX);
        assert_eq!(packed.order, vec![0, 1], "earlier arrival stays first");
        assert_eq!(packed.wave_sizes, vec![1, 1]);
    }

    #[test]
    fn max_n_takes_a_wave_prefix() {
        // Wave 0 has 4 members, wave 1 has 4; max_n = 6 must take all
        // of wave 0 and only 2 of wave 1 — never a wave-1 member whose
        // wave-0 predecessor was cut.
        let mut footprints = Vec::new();
        for i in 0..4 {
            footprints.push(writes(&[
                id(&format!("w0-{i}")),
                spend(&format!("s{i}"), 0),
            ]));
        }
        for i in 0..4 {
            footprints.push(writes(&[
                id(&format!("w1-{i}")),
                spend(&format!("s{i}"), 0),
            ]));
        }
        let packed = pack_batch(&footprints, 6);
        assert_eq!(packed.wave_sizes, vec![4, 2]);
        assert!(packed.order[..4].iter().all(|&p| p < 4));
        assert!(packed.order[4..].iter().all(|&p| p >= 4));
    }

    #[test]
    fn wave_members_keep_arrival_order() {
        // t2 double-spends t0's source and t5 t3's: they pack one wave
        // later, and each wave lists its members as they arrived.
        let sources = ["a", "b", "a", "c", "d", "c", "e"];
        let footprints: Vec<Footprint> = (sources.iter().enumerate())
            .map(|(i, src)| writes(&[id(&format!("t{i}")), spend(src, 0)]))
            .collect();
        let packed = pack_batch(&footprints, usize::MAX);
        assert_eq!(packed.wave_sizes, vec![5, 2]);
        assert_eq!(packed.order, vec![0, 1, 3, 4, 6, 2, 5]);
    }

    /// One pool holding a whole 16-bidder auction packs as
    /// CREATEs + REQUEST | 16 BIDs | ACCEPT_BID: the bids append to one
    /// bid set and commute, the accept reads it. Its 16 settlement
    /// children unlock bids of that set and pack as one wave.
    #[test]
    fn a_contended_auction_and_its_children_pack_three_waves_and_one() {
        use scdb_core::{
            determine_children, footprint, LedgerState, LedgerView, Operation, Transaction,
            TxBuilder,
        };
        use scdb_crypto::KeyPair;
        use scdb_json::{arr, obj};
        use std::collections::HashMap;

        let key = |seed: u8| KeyPair::from_seed([seed; 32]);
        let (escrow, sally) = (key(0xE5), key(0x5A));
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(sally.public_hex(), 1)
            .sign(&[&sally]);
        let mut pool = vec![request.clone()];
        let mut bids = Vec::new();
        for b in 0..16u8 {
            let supplier = key(0x20 + b);
            let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
                .output(supplier.public_hex(), 1)
                .sign(&[&supplier]);
            bids.push(
                TxBuilder::bid(asset.id.clone(), request.id.clone())
                    .input(asset.id.clone(), 0, vec![supplier.public_hex()])
                    .output_with_prev(escrow.public_hex(), 1, vec![supplier.public_hex()])
                    .sign(&[&supplier]),
            );
            pool.push(asset);
        }
        let mut accept = TxBuilder::accept_bid(bids[0].id.clone(), request.id.clone())
            .output_with_prev(sally.public_hex(), 1, vec![escrow.public_hex()]);
        for (b, bid) in bids.iter().enumerate() {
            accept = accept.input(bid.id.clone(), 0, vec![escrow.public_hex()]);
            if b > 0 {
                let supplier = key(0x20 + b as u8);
                accept =
                    accept.output_with_prev(supplier.public_hex(), 1, vec![escrow.public_hex()]);
            }
        }
        pool.extend(bids);
        pool.push(accept.sign(&[&sally]));

        let by_id: HashMap<&str, &Transaction> =
            pool.iter().map(|tx| (tx.id.as_str(), tx)).collect();
        let footprints: Vec<Footprint> = (pool.iter())
            .map(|tx| footprint(tx, |id| by_id.get(id).copied()).0)
            .collect();
        let packed = pack_batch(&footprints, usize::MAX);
        assert_eq!(packed.wave_sizes, vec![17, 16, 1]);
        let ops = |wave: &[usize]| -> Vec<Operation> {
            wave.iter()
                .map(|&i| pool[packed.order[i]].operation)
                .collect()
        };
        let waves = packed.waves();
        let setup = |op: &Operation| matches!(op, Operation::Create | Operation::Request);
        assert!(ops(&waves[0]).iter().all(setup));
        assert!(ops(&waves[1]).iter().all(|op| *op == Operation::Bid));
        assert_eq!(ops(&waves[2]), [Operation::AcceptBid]);

        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        for tx in &pool {
            ledger
                .apply(tx)
                .expect("the auction applies in arrival order");
        }
        let accept = pool.last().expect("the accept");
        let children = determine_children(&ledger, accept, &escrow).expect("children");
        assert_eq!(children.len(), 16);
        let footprints: Vec<Footprint> = (children.iter())
            .map(|tx| footprint(tx, |id| ledger.get(id)).0)
            .collect();
        assert_eq!(pack_batch(&footprints, usize::MAX).wave_sizes, [16]);
    }

    #[test]
    fn empty_and_zero_budget_are_empty() {
        assert!(pack_batch::<Footprint>(&[], 10).is_empty());
        let footprints = vec![writes(&[id("a")])];
        assert!(pack_batch(&footprints, 0).is_empty());
    }
}

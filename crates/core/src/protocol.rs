//! Pure transition rules for the sequence-numbered reliable-delivery
//! sub-protocol (Restore / ack-watermark / re-send).
//!
//! The fault-tolerant runtime must move state (restored work units,
//! balancing instructions) over a network that drops and duplicates
//! messages. It does so with a classic window protocol: the sender stamps
//! each message with a monotone per-destination sequence number and keeps it
//! until acknowledged; the receiver deduplicates by sequence number and
//! acknowledges with a *contiguous watermark* (the largest `k` such that
//! every sequence `1..=k` was applied); unacknowledged messages are re-sent
//! on silence.
//!
//! These rules used to live inline in `master.rs` and
//! `engine_independent.rs`, where only example-based chaos tests could reach
//! them. They are factored here as three small pure types — [`SenderWindow`],
//! [`AckTracker`], and [`TransferWindow`] — used verbatim by the runtime
//! *and* by the model-checkable abstractions in
//! [`crate::session::model`] ([`crate::session::model::RestoreModel`],
//! [`crate::session::model::TransferModel`]), which `dlb-analyze`
//! exhaustively explores for lost work, duplicate application, and deadlock
//! (the properties Eleliemy & Ciorba and Zafari & Larsson identify as the
//! hard part of distributed self-scheduling). The election model steps the
//! deputies' [`Ballot`](crate::session::replica::Ballot) the same way, and
//! the join model the master's admission verdict.

use std::collections::BTreeSet;

/// Receiver side: sequence-number deduplication plus the contiguous
/// acknowledgement watermark reported back to the sender.
///
/// Sequences (numbered from 1, as [`SenderWindow`] hands them out) may
/// arrive out of order under drops and re-sends; the watermark only advances
/// over a gap once the gap is filled. The applied set is held as its
/// contiguous prefix plus the stragglers beyond the first gap, so memory is
/// bounded by what is out of order, not by the channel's age — and equal
/// applied sets are equal values, which the model checker's state hashing
/// relies on.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AckTracker {
    /// Every sequence `1..=watermark` has been applied.
    watermark: u64,
    /// Applied sequences above `watermark + 1` (which is itself missing).
    above_gap: BTreeSet<u64>,
}

impl AckTracker {
    /// Record `seq` as applied. Returns `true` if it was fresh — the caller
    /// must apply the payload exactly when this returns `true`.
    pub fn fresh(&mut self, seq: u64) -> bool {
        if seq <= self.watermark {
            return false;
        }
        if seq > self.watermark + 1 {
            return self.above_gap.insert(seq);
        }
        self.watermark = seq;
        while self.above_gap.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        true
    }

    /// Largest `k` such that every sequence `1..=k` has been applied; zero
    /// when nothing has.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

/// Sender side: monotone sequence numbers and the pending-until-acked
/// window that drives re-sends.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SenderWindow<T> {
    seq_sent: u64,
    watermark: u64,
    pending: Vec<(u64, T)>,
}

impl<T> SenderWindow<T> {
    pub fn new() -> SenderWindow<T> {
        SenderWindow {
            seq_sent: 0,
            watermark: 0,
            pending: Vec::new(),
        }
    }

    /// Allocate the next sequence number, build the payload with it, and
    /// retain it for re-sends. Returns the payload just stored.
    pub fn send_with(&mut self, make: impl FnOnce(u64) -> T) -> &T {
        self.seq_sent += 1;
        let payload = make(self.seq_sent);
        self.pending.push((self.seq_sent, payload));
        &self.pending.last().expect("just pushed").1
    }

    /// Process an acknowledgement watermark: watermarks are monotone, and
    /// everything at or below the watermark is no longer pending.
    pub fn ack(&mut self, watermark: u64) {
        self.watermark = self.watermark.max(watermark);
        let w = self.watermark;
        self.pending.retain(|(seq, _)| *seq > w);
    }

    /// Highest sequence number handed out.
    pub fn seq_sent(&self) -> u64 {
        self.seq_sent
    }

    /// Highest acknowledgement watermark seen.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Everything sent but not yet covered by an acknowledgement, in
    /// sequence order — the re-send set.
    pub fn unacked(&self) -> impl Iterator<Item = &(u64, T)> {
        self.pending.iter()
    }

    /// True once every sequence handed out has been acknowledged.
    pub fn fully_acked(&self) -> bool {
        self.watermark >= self.seq_sent
    }

    /// Rewrite every retained payload in place. Exists for symmetry
    /// canonicalization in [`crate::session::model`], where payloads carry
    /// peer indices that must be relabeled consistently with the rest of
    /// the state; sequence numbers and watermarks are untouched.
    pub fn map_payloads(&mut self, mut f: impl FnMut(&mut T)) {
        for (_, payload) in &mut self.pending {
            f(payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Slave ↔ slave transfer channel
// ---------------------------------------------------------------------------

/// One direction of a slave↔slave work-migration channel: the sender half
/// ([`SenderWindow`]) for payloads we originate plus the receiver half
/// ([`AckTracker`]) for payloads the peer originates, and an `open` flag
/// that closes the channel for good once the peer is evicted.
///
/// The runtime keeps one `TransferWindow` per peer on every slave. Sends
/// allocate a per-channel sequence number and retain the payload for
/// event-triggered re-sends; receipts are deduplicated by sequence number
/// and acknowledged with the contiguous watermark. Closing the channel
/// (peer evicted) drains the unacknowledged payloads so the survivor can
/// re-own the units that were still in flight — the peer either never
/// applied them (they died on the wire) or died holding them; either way
/// the survivor's copy is the only live one.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferWindow<T> {
    out: SenderWindow<T>,
    inn: AckTracker,
    open: bool,
}

impl<T> TransferWindow<T> {
    pub fn new() -> TransferWindow<T> {
        TransferWindow {
            out: SenderWindow::new(),
            inn: AckTracker::default(),
            open: true,
        }
    }

    /// False once the peer was evicted: no sends, no accepts.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Allocate the next outbound sequence number and retain the payload.
    /// Returns `None` without allocating when the channel is closed — an
    /// offer to an evicted slave is refused locally, never put on the wire.
    pub fn send_with(&mut self, make: impl FnOnce(u64) -> T) -> Option<&T> {
        if !self.open {
            return None;
        }
        Some(self.out.send_with(make))
    }

    /// Process the peer's acknowledgement watermark (monotone; duplicate
    /// acks are absorbed). Harmless after close — the pending set is
    /// already drained.
    pub fn ack(&mut self, watermark: u64) {
        self.out.ack(watermark);
    }

    /// Deduplicate an inbound payload: `true` exactly when `seq` is fresh
    /// *and* the channel is open — the caller applies the payload (and
    /// counts the receipt) iff this returns `true`.
    pub fn accept(&mut self, seq: u64) -> bool {
        self.open && self.inn.fresh(seq)
    }

    /// Contiguous watermark of inbound payloads applied — what we
    /// acknowledge back to the peer.
    pub fn recv_watermark(&self) -> u64 {
        self.inn.watermark()
    }

    /// Outbound payloads not yet covered by an acknowledgement.
    pub fn unacked(&self) -> impl Iterator<Item = &(u64, T)> {
        self.out.unacked()
    }

    pub fn fully_acked(&self) -> bool {
        self.out.fully_acked()
    }

    pub fn seq_sent(&self) -> u64 {
        self.out.seq_sent()
    }

    /// Highest acknowledgement watermark seen from the peer.
    pub fn acked_watermark(&self) -> u64 {
        self.out.watermark()
    }

    /// Close the channel (peer evicted) and drain the unacknowledged
    /// outbound payloads for re-owning. Idempotent: a second close drains
    /// nothing.
    pub fn close(&mut self) -> Vec<T> {
        if !self.open {
            return Vec::new();
        }
        self.open = false;
        let w = self.out.watermark();
        std::mem::take(&mut self.out.pending)
            .into_iter()
            .filter(|(seq, _)| *seq > w)
            .map(|(_, payload)| payload)
            .collect()
    }

    /// Forget all channel state and reopen (rollback to a checkpoint: every
    /// in-flight transfer is fenced off by the epoch bump, so both sides
    /// restart from sequence zero).
    pub fn reset(&mut self) {
        *self = TransferWindow::new();
    }

    /// Rewrite every retained outbound payload in place (see
    /// [`SenderWindow::map_payloads`]).
    pub fn map_payloads(&mut self, f: impl FnMut(&mut T)) {
        self.out.map_payloads(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_is_contiguous() {
        let mut t = AckTracker::default();
        assert_eq!(t.watermark(), 0);
        assert!(t.fresh(2));
        assert_eq!(t.watermark(), 0, "gap at 1 holds the watermark");
        assert!(t.fresh(1));
        assert_eq!(t.watermark(), 2);
        assert!(!t.fresh(2), "duplicate must not be fresh");
    }

    /// The definition `watermark` replaced: walk the applied set from 1.
    fn set_walk_watermark(applied: &BTreeSet<u64>) -> u64 {
        let mut w = 0;
        while applied.contains(&(w + 1)) {
            w += 1;
        }
        w
    }

    /// 10⁵ in-order sequences with the watermark read after each one — the
    /// re-walk from 1 this replaced needed 5·10⁹ set lookups for that.
    #[test]
    fn watermark_in_order_is_constant_time() {
        let mut t = AckTracker::default();
        for seq in 1..=100_000 {
            assert!(t.fresh(seq));
            assert_eq!(t.watermark(), seq);
        }
        assert!(t.above_gap.is_empty());
        assert!(!t.fresh(99_999));
    }

    #[test]
    fn watermark_matches_set_walk_on_shuffled_gappy_sequence() {
        // 10⁵ sequences, every 997th arriving 500 places late (a re-send
        // closing its gap), the lot shuffled inside windows of 64, with a
        // duplicate now and then.
        let mut rng = dlb_sim::Pcg32::new(0xac4);
        let mut order: Vec<u64> = (1..=100_000).collect();
        order.sort_by_key(|&seq| if seq % 997 == 0 { seq + 500 } else { seq });
        for window in order.chunks_mut(64) {
            for i in (1..window.len()).rev() {
                window.swap(i, rng.gen_index(0, i + 1));
            }
        }
        let mut t = AckTracker::default();
        let mut applied = BTreeSet::new();
        for (i, &seq) in order.iter().enumerate() {
            assert_eq!(t.fresh(seq), applied.insert(seq));
            if i % 7 == 0 {
                assert!(!t.fresh(seq), "duplicate must not be fresh");
            }
            // The walk is what makes this slow: every step early on, then
            // a sample.
            if i < 2_000 || i % 16_384 == 0 {
                assert_eq!(t.watermark(), set_walk_watermark(&applied));
            }
        }
        assert_eq!(t.watermark(), 100_000);
        assert!(t.above_gap.is_empty(), "every straggler was absorbed");

        // Canonical: the same applied set reached in another order is the
        // same value.
        let (mut a, mut b) = (AckTracker::default(), AckTracker::default());
        for seq in [5, 1, 2, 9, 3] {
            a.fresh(seq);
        }
        for seq in [3, 9, 2, 5, 1] {
            b.fresh(seq);
        }
        assert_eq!(a, b);
        assert_eq!((a.watermark(), a.above_gap.len()), (3, 2));
    }

    #[test]
    fn window_retains_until_acked() {
        let mut w: SenderWindow<&'static str> = SenderWindow::new();
        w.send_with(|_| "a");
        w.send_with(|_| "b");
        assert_eq!(w.seq_sent(), 2);
        assert!(!w.fully_acked());
        w.ack(1);
        let left: Vec<u64> = w.unacked().map(|(s, _)| *s).collect();
        assert_eq!(left, vec![2]);
        w.ack(0); // stale watermark must not regress
        assert_eq!(w.watermark(), 1);
        w.ack(2);
        assert!(w.fully_acked());
    }

    #[test]
    fn transfer_window_crash_mid_payload_reowns_only_unacked() {
        let mut w: TransferWindow<Vec<usize>> = TransferWindow::new();
        w.send_with(|_| vec![0, 1]);
        w.send_with(|_| vec![2]);
        w.ack(1);
        // The peer crashes with sequence 2 still on the wire: closing the
        // channel re-owns exactly the unacked payload.
        let reowned = w.close();
        assert_eq!(reowned, vec![vec![2]]);
        assert!(!w.is_open());
        assert_eq!(w.close(), Vec::<Vec<usize>>::new(), "close is idempotent");
    }

    #[test]
    fn transfer_window_absorbs_duplicate_acks() {
        let mut w: TransferWindow<&'static str> = TransferWindow::new();
        w.send_with(|_| "a");
        w.send_with(|_| "b");
        w.ack(1);
        w.ack(1); // duplicated ack delivery
        w.ack(0); // stale ack must not regress the watermark
        assert_eq!(w.acked_watermark(), 1);
        assert_eq!(w.unacked().count(), 1);
        w.ack(2);
        assert!(w.fully_acked());
    }

    #[test]
    fn transfer_window_refuses_offer_to_evicted_slave() {
        let mut w: TransferWindow<Vec<usize>> = TransferWindow::new();
        w.close();
        assert!(w.send_with(|_| vec![7]).is_none(), "no sends after close");
        assert_eq!(w.seq_sent(), 0, "no sequence allocated for the refusal");
        assert!(!w.accept(1), "inbound from an evicted peer is ignored");
        assert_eq!(w.recv_watermark(), 0);
    }

    #[test]
    fn transfer_window_dedups_and_acks_inbound() {
        let mut w: TransferWindow<()> = TransferWindow::new();
        assert!(w.accept(2));
        assert!(!w.accept(2), "duplicate payload must not be fresh");
        assert_eq!(w.recv_watermark(), 0, "gap at 1 holds the watermark");
        assert!(w.accept(1));
        assert_eq!(w.recv_watermark(), 2);
        w.reset();
        assert!(w.accept(1), "reset reopens a fresh channel");
        assert_eq!(w.seq_sent(), 0);
    }
}

//! The membership table: per-slave liveness, suspicion timers, nudge
//! scheduling, and barrier-completion flags.
//!
//! One table under both recovery policies of the fault-mode master, with
//! the timer arithmetic — silence measurement, nudge re-arming, eviction —
//! expressed once.

use dlb_sim::{SimDuration, SimTime};

/// Which life of a slot a message stamped with an incarnation speaks for,
/// as the master's table sees it — the one admission rule, read by the
/// master's `Alive` and `Join` arms, its admission pass, and the join
/// protocol model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Life {
    /// The slot is a member and the stamp is its life: credit it, and
    /// answer a repeated `Join` by replaying the admission window.
    Current,
    /// The slot is evicted and the stamp is its latest life or a newer
    /// one: repeat the `Evict` to a heartbeat, admit a `Join`.
    Evicted,
    /// A zombie of an older life, or a newer life over a slot the master
    /// still counts alive (heard only once suspicion evicts the older):
    /// ignored.
    Stale,
}

impl Life {
    /// The verdict for a message stamped `stamped` on a slot that is
    /// `alive` under incarnation `on_record`.
    pub fn of(alive: bool, on_record: u64, stamped: u64) -> Life {
        match alive {
            true if stamped == on_record => Life::Current,
            false if stamped >= on_record => Life::Evicted,
            _ => Life::Stale,
        }
    }
}

/// Per-slave liveness and barrier state as seen by the master.
///
/// Indices are slave indices (`0..n`), not node ids. Eviction removes a
/// slave from the computation; a false suspicion is resolved either by the
/// evicted slave exiting, or — when rejoin is enabled — by it coming back
/// through the [`crate::msg::Msg::Join`] handshake with a fresh incarnation
/// ([`Self::readmit`]). Traffic stamped with an older incarnation belongs to
/// the slave's previous life and must be fenced, never credited.
#[derive(Clone, Debug)]
pub struct Membership {
    /// Still part of the computation.
    pub alive: Vec<bool>,
    /// Admission incarnation of each slave's current (or, if evicted, most
    /// recent) life. Bumped by [`Self::readmit`], and under a takeover set
    /// by what each slot states ([`Self::state_life`]); a liveness ping is
    /// only credited when its stamped incarnation matches this table, so a
    /// zombie from before the rejoin cannot defer suspicion of the new life.
    pub incarnation: Vec<u64>,
    /// Ever heard from at all (distinguishes "lost the Start" from
    /// "went silent mid-run").
    pub heard_any: Vec<bool>,
    /// Instant of the last *protocol* message from each slave.
    pub last_heard: Vec<SimTime>,
    /// Instant of the last bare liveness ping ([`crate::msg::Msg::Alive`]).
    /// Kept separate from `last_heard` so pings defer suspicion without
    /// starving the silence-gated re-send paths (a pinging slave may be
    /// pinging precisely *because* it lost the message those paths re-send).
    pub last_ping: Vec<SimTime>,
    /// Next instant the nudge timer may fire for each slave.
    pub next_nudge: Vec<SimTime>,
    /// Reported done for the current invocation.
    pub done: Vec<bool>,
}

impl Membership {
    pub fn new(n: usize, now: SimTime, nudge: SimDuration) -> Membership {
        Membership {
            alive: vec![true; n],
            incarnation: vec![0; n],
            heard_any: vec![false; n],
            last_heard: vec![now; n],
            last_ping: vec![now; n],
            next_nudge: vec![now + nudge; n],
            done: vec![false; n],
        }
    }

    pub fn n(&self) -> usize {
        self.alive.len()
    }

    /// Which life of slave `s` a message stamped `incarnation` speaks for.
    pub fn life(&self, s: usize, incarnation: u64) -> Life {
        Life::of(self.alive[s], self.incarnation[s], incarnation)
    }

    /// Slave `s` stated its life, `incarnation`, in answer to a takeover's
    /// `Promoted`: a takeover has no other record of it. Never lowered, so
    /// a late answer from an older life cannot revive it.
    pub fn state_life(&mut self, s: usize, incarnation: u64) {
        self.incarnation[s] = self.incarnation[s].max(incarnation);
    }

    /// Record traffic from slave `s`: refreshes the suspicion timer and
    /// marks the slave as heard.
    pub fn heard(&mut self, s: usize, now: SimTime) {
        self.heard_any[s] = true;
        self.last_heard[s] = now;
    }

    /// Record a bare liveness ping ([`crate::msg::Msg::Alive`]): refreshes
    /// the suspicion clock but *not* `last_heard` or `heard_any` — the
    /// repair paths key off protocol silence ([`Self::unheard_for`]), and a
    /// pinging slave may be pinging precisely because it lost the message
    /// they re-send.
    pub fn ping(&mut self, s: usize, now: SimTime) {
        self.last_ping[s] = now;
    }

    /// How long slave `s` has shown no sign of life (neither protocol
    /// traffic nor a liveness ping). Feeds suspicion and speculation.
    pub fn silent_for(&self, s: usize, now: SimTime) -> SimDuration {
        now.saturating_since(self.last_heard[s].max(self.last_ping[s]))
    }

    /// How long since slave `s` made *protocol progress* (pings excluded).
    /// Feeds the silence-gated re-send paths: a slave can vouch for its own
    /// liveness, but only a real protocol message proves it is unstuck.
    pub fn unheard_for(&self, s: usize, now: SimTime) -> SimDuration {
        now.saturating_since(self.last_heard[s])
    }

    /// True when the nudge timer for `s` has expired; re-arms it for
    /// `interval` from now when it has (so each expiry fires once).
    pub fn nudge_due(&mut self, s: usize, now: SimTime, interval: SimDuration) -> bool {
        if now >= self.next_nudge[s] {
            self.next_nudge[s] = now + interval;
            true
        } else {
            false
        }
    }

    /// Push the nudge timer for `s` out to `interval` from now (after a
    /// direct send, so the timer does not immediately re-fire).
    pub fn rearm_nudge(&mut self, s: usize, now: SimTime, interval: SimDuration) {
        self.next_nudge[s] = now + interval;
    }

    /// Indices of the slaves still alive, in order.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.n()).filter(|&s| self.alive[s]).collect()
    }

    pub fn any_alive(&self) -> bool {
        self.alive.iter().any(|&a| a)
    }

    /// Evict slave `s`: removal from the computation (reversed only by
    /// [`Self::readmit`]).
    pub fn evict(&mut self, s: usize) {
        self.alive[s] = false;
        self.done[s] = false;
    }

    /// Readmit slave `s` under a new incarnation: fresh liveness clocks,
    /// alive again, barrier not yet satisfied. The incarnation comes from
    /// the joiner's `Msg::Join` so both sides agree on which life is
    /// current; it must be newer than the one on record (callers fence
    /// duplicate/stale joins before admitting).
    pub fn readmit(&mut self, s: usize, incarnation: u64, now: SimTime, nudge: SimDuration) {
        debug_assert!(incarnation >= self.incarnation[s]);
        self.alive[s] = true;
        self.incarnation[s] = incarnation;
        self.heard_any[s] = true;
        self.last_heard[s] = now;
        self.last_ping[s] = now;
        self.next_nudge[s] = now + nudge;
        self.done[s] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn silence_is_measured_from_last_traffic() {
        let mut m = Membership::new(2, t(0), SimDuration::from_secs(2));
        m.heard(0, t(1_000));
        assert_eq!(m.silent_for(0, t(5_000)), SimDuration::from_micros(4_000));
        assert_eq!(m.silent_for(1, t(5_000)), SimDuration::from_micros(5_000));
        assert!(m.heard_any[0]);
        assert!(!m.heard_any[1]);
    }

    #[test]
    fn pings_defer_suspicion_but_not_protocol_silence() {
        let mut m = Membership::new(1, t(0), SimDuration::from_secs(2));
        m.heard(0, t(1_000));
        m.ping(0, t(4_000));
        // Liveness clock follows the ping…
        assert_eq!(m.silent_for(0, t(5_000)), SimDuration::from_micros(1_000));
        // …but protocol progress does not, so re-send gates still fire.
        assert_eq!(m.unheard_for(0, t(5_000)), SimDuration::from_micros(4_000));
        assert!(m.heard_any[0]);
        // A ping alone never counts as having spoken.
        let mut fresh = Membership::new(1, t(0), SimDuration::from_secs(2));
        fresh.ping(0, t(1_000));
        assert!(!fresh.heard_any[0]);
    }

    #[test]
    fn nudge_fires_once_per_expiry_and_rearms() {
        let nudge = SimDuration::from_secs(1);
        let mut m = Membership::new(1, t(0), nudge);
        assert!(!m.nudge_due(0, t(500_000), nudge), "not yet expired");
        assert!(m.nudge_due(0, t(1_000_000), nudge));
        assert!(
            !m.nudge_due(0, t(1_000_001), nudge),
            "must re-arm after firing"
        );
        assert!(m.nudge_due(0, t(2_000_001), nudge));
    }

    #[test]
    fn eviction_drops_done_and_removes_from_survivors() {
        let mut m = Membership::new(3, t(0), SimDuration::from_secs(1));
        m.done[1] = true;
        m.evict(1);
        assert_eq!(m.survivors(), vec![0, 2]);
        assert!(!m.done[1], "a dead slave cannot satisfy the barrier");
        assert!(m.any_alive());
        m.evict(0);
        m.evict(2);
        assert!(!m.any_alive());
    }

    #[test]
    fn readmit_reverses_eviction_with_fresh_clocks() {
        let nudge = SimDuration::from_secs(1);
        let mut m = Membership::new(3, t(0), nudge);
        m.heard(1, t(1_000));
        m.done[1] = true;
        m.evict(1);
        assert_eq!(m.survivors(), vec![0, 2]);
        m.readmit(1, 1, t(10_000_000), nudge);
        assert_eq!(m.survivors(), vec![0, 1, 2]);
        assert_eq!(m.incarnation[1], 1);
        assert!(!m.done[1], "rejoiner has not satisfied the new barrier");
        assert!(m.heard_any[1]);
        // Both clocks restart at the admission instant: the ten virtual
        // seconds the slave spent dead must not read as suspicion.
        assert_eq!(m.silent_for(1, t(10_000_000)), SimDuration::ZERO);
        assert_eq!(m.unheard_for(1, t(10_000_000)), SimDuration::ZERO);
        assert!(!m.nudge_due(1, t(10_000_001), nudge), "nudge re-armed");
    }

    /// A join racing the eviction of the same slave id: the eviction lands
    /// first (the table is settled state — the master queues joins until no
    /// eviction is pending), then the readmit flips it back under a newer
    /// incarnation. The old incarnation's traffic is fenceable afterwards.
    #[test]
    fn readmit_after_racing_eviction_bumps_incarnation() {
        let nudge = SimDuration::from_secs(1);
        let mut m = Membership::new(2, t(0), nudge);
        assert_eq!(m.incarnation[0], 0);
        m.evict(0);
        m.readmit(0, 3, t(500), nudge);
        assert!(m.alive[0]);
        // A zombie ping stamped with the old incarnation is stale, so only
        // the new life can defer suspicion.
        assert_eq!(m.life(0, 0), Life::Stale);
        assert_eq!(m.life(0, 3), Life::Current);
    }

    /// The verdict over a slot alive or evicted under incarnation 1, for
    /// an older, the equal and a newer stamp: only an evicted slot hears a
    /// newer life, and only a member credits its own.
    #[test]
    fn the_verdict_over_alive_and_evicted_by_stamp_age() {
        use Life::{Current, Evicted, Stale};
        let table = [
            (true, [Stale, Current, Stale]),
            (false, [Stale, Evicted, Evicted]),
        ];
        for (alive, row) in table {
            for (stamped, want) in (0..3).zip(row) {
                assert_eq!(
                    Life::of(alive, 1, stamped),
                    want,
                    "alive {alive}, stamp {stamped}"
                );
            }
        }
    }
}

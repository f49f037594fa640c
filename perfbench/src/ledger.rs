//! `ledger`: a `Ledger` with 4 shards, 4096 accounts and 32 vouchers per
//! settlement lane. Zipf(0.99) ranks pick the accounts of a mix of
//! migrate, settle, promote, demote and balance, plus balanced churn: a
//! close whose burned amount is reopened at once. Worker 0 runs
//! `quiesced_audit` inline every 50 ms, so the audit pause is measured
//! without a third thread.
//!
//! The mix is stationary. Each rank names one live account through a
//! shared table; churn replaces the rank's account with the one `open`
//! returns, so neither the live set nor the hot set drains. Only the
//! worker whose parity matches a rank churns it, so a rank's account is
//! never closed twice.

use crate::drive::{Ctl, WORKERS};
use crate::gen::{self, Zipf};
use crate::rec::{op_id, Name, Outcome, Rec, NO_PARENT};
use crate::{run_bench, Bench, Gates, Params, Report};
use lfc_ledger::{AuditReport, Ledger, LedgerCfg, LedgerError};
use lfc_runtime::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 4;
const VOUCHERS_PER_LANE: u64 = 32;
const ZIPF_S: f64 = 0.99;
const AUDIT_EVERY_NS: u64 = 50_000_000;

const MIGRATE: u32 = 0;
const SETTLE: u32 = 1;
const PROMOTE: u32 = 2;
const DEMOTE: u32 = 3;
const BALANCE: u32 = 4;
const CHURN: u32 = 5;
/// Weights of the mix. They are the proportions of the ledger traffic in
/// `lfc_bench::chaos` (in sixteenths: migrate 6, settle 3, promote 2,
/// demote 2, balance 1, and 2 for its open and close), with its open and
/// close replaced by churn.
const MIX: [(u32, u64); 5] = [
    (MIGRATE, 6),
    (SETTLE, 3),
    (PROMOTE, 2),
    (DEMOTE, 2),
    (BALANCE, 1),
];
/// One operation in this many is churn; the rest follow [`MIX`]. Churn is
/// rare on purpose: every open issues a fresh id, and the audit scans the
/// cold tiers densely over every id ever issued, so a churn-heavy mix
/// would make each audit pause longer than the last (at 10% churn it
/// reached 90 ms within a 2 s run).
const CHURN_ONE_IN: u64 = 10_000;

fn draw_kind(r: &mut SmallRng) -> u32 {
    if r.below(CHURN_ONE_IN) == 0 {
        return CHURN;
    }
    let mut x = r.below(MIX.iter().map(|&(_, w)| w).sum());
    for &(kind, w) in &MIX {
        if x < w {
            return kind;
        }
        x -= w;
    }
    unreachable!("x is below the weights' sum")
}

/// Operation word: bits 0-2 kind, bits 3-15 rank, bits 16-17 shard a (the
/// migration target, or the first lane), bits 18-19 shard b.
const RANK_SHIFT: u32 = 3;
const RANK_MASK: u32 = (1 << 13) - 1;

/// Tokens account `rank` holds. Churn reopens the burned amount, so a
/// rank's account always holds exactly this much.
pub fn amount_of(rank: usize) -> u64 {
    100 + rank as u64 % 900
}

fn voucher_of(lane: usize, j: u64) -> u64 {
    10 + lane as u64 * VOUCHERS_PER_LANE + j
}

pub struct LedgerMix {
    accounts: usize,
    rings: Vec<Vec<u32>>,
}

impl LedgerMix {
    pub fn new(seed: u64, accounts: usize, ring: usize) -> Self {
        assert!(accounts <= RANK_MASK as usize + 1 && accounts.is_multiple_of(WORKERS));
        let zipf = Zipf::new(accounts, ZIPF_S);
        let rings = (0..WORKERS)
            .map(|w| {
                let mut r = gen::rng(seed, w as u64);
                gen::ring(ring, || {
                    let kind = draw_kind(&mut r);
                    let mut rank = zipf.sample(&mut r);
                    if kind == CHURN {
                        // Churn only this worker's parity of ranks.
                        rank = (rank & !(WORKERS - 1)) | w;
                    }
                    let a = r.below(SHARDS as u64) as u32;
                    let b = (a + 1 + r.below(SHARDS as u64 - 1) as u32) % SHARDS as u32;
                    kind | (rank as u32) << RANK_SHIFT | a << 16 | b << 18
                })
            })
            .collect();
        LedgerMix { accounts, rings }
    }
}

pub struct Objs {
    pub ledger: Ledger,
    /// The live account id of each rank.
    pub ids: Vec<AtomicU64>,
    /// Odd while an audit runs; bumped at its start and at its end. Only
    /// the stall statistic reads it, so every access is Relaxed.
    audit_seq: AtomicU64,
}

/// Audits a worker ran, for the gates.
#[derive(Default)]
pub struct Tally {
    pub audits: u64,
    pub unconserved: Vec<AuditReport>,
}

fn classify<T>(r: &Result<T, LedgerError>) -> Outcome {
    match r {
        Ok(_) => Outcome::Useful,
        // Lost a race with a concurrent churn or move: a valid answer.
        Err(LedgerError::NotFound | LedgerError::Duplicate) => Outcome::Wasted,
        Err(LedgerError::Shed | LedgerError::Overloaded) => Outcome::Failed,
    }
}

impl Bench for LedgerMix {
    type Objs = Objs;
    type Tally = Tally;

    fn setup(&self) -> Objs {
        let ledger = Ledger::new(LedgerCfg {
            shards: SHARDS,
            ..LedgerCfg::default()
        });
        let ids = (0..self.accounts)
            .map(|r| AtomicU64::new(ledger.open(amount_of(r)).expect("open during set-up")))
            .collect();
        for lane in 0..SHARDS {
            for j in 0..VOUCHERS_PER_LANE {
                ledger
                    .fund_lane(lane, voucher_of(lane, j))
                    .expect("fund_lane during set-up");
            }
        }
        Objs {
            ledger,
            ids,
            audit_seq: AtomicU64::new(0),
        }
    }

    fn work(&self, o: &Objs, ctl: &Ctl, rec: &mut Rec, t: &mut Tally) {
        let ring = &self.rings[ctl.w];
        let mask = ring.len() - 1;
        let l = &o.ledger;
        let mut i = 0usize;
        let mut start = ctl.clock.now();
        let mut next_audit = start + AUDIT_EVERY_NS;
        while ctl.running(rec, &mut start) {
            if ctl.w == 0 && start >= next_audit {
                o.audit_seq.fetch_add(1, Ordering::Relaxed);
                let report = l.quiesced_audit();
                o.audit_seq.fetch_add(1, Ordering::Relaxed);
                let end = ctl.clock.now();
                t.audits += 1;
                let ok = report.conserved();
                if !ok {
                    t.unconserved.push(report);
                }
                if let Some(tr) = rec.tr.as_deref_mut() {
                    let out = if ok { Outcome::Useful } else { Outcome::Failed };
                    tr.leaf(Name::Audit, u64::MAX, start, end, out);
                }
                next_audit = end + AUDIT_EVERY_NS;
                start = end;
            }
            let op = ring[i & mask];
            let rank = ((op >> RANK_SHIFT) & RANK_MASK) as usize;
            let (a, b) = ((op >> 16) as usize & 3, (op >> 18) as usize & 3);
            let id = o.ids[rank].load(Ordering::Acquire);
            let oid = op_id(ctl.w, i);
            let seq0 = o.audit_seq.load(Ordering::Relaxed);
            let (name, out) = match op & 7 {
                MIGRATE => (Name::Migrate, classify(&l.migrate(id, a))),
                SETTLE => (Name::Settle, classify(&l.settle(a, b))),
                PROMOTE => (Name::Promote, classify(&l.promote(id))),
                DEMOTE => (Name::Demote, classify(&l.demote(id))),
                BALANCE => {
                    let r = l.balance(id);
                    let out = match r {
                        Ok(v) if v != amount_of(rank) => Outcome::Failed,
                        _ => classify(&r),
                    };
                    (Name::Balance, out)
                }
                _ => (Name::Churn, churn(o, ctl, rec, rank, id, oid, start)),
            };
            let end = ctl.clock.now();
            rec.op(start, end, out);
            if let Some(tr) = rec.tr.as_deref_mut() {
                if name != Name::Churn {
                    tr.leaf(name, oid, start, end, out);
                }
                let seq1 = o.audit_seq.load(Ordering::Relaxed);
                if seq0 & 1 == 1 || seq1 != seq0 {
                    tr.stalled.record(end - start);
                }
            }
            i += 1;
            start = end;
        }
    }

    fn gates(&self, o: &Objs, tallies: &[Tally], g: &mut Gates) {
        for t in tallies {
            g.checked += t.audits - t.unconserved.len() as u64;
            for r in &t.unconserved {
                g.check(false, || format!("an inline audit did not conserve: {r:?}"));
            }
        }
        let r = o.ledger.quiesced_audit();
        check_audit(&r, self.accounts, g);
        let mut wrong = 0;
        for (rank, id) in o.ids.iter().enumerate() {
            if o.ledger.balance(id.load(Ordering::Acquire)) != Ok(amount_of(rank)) {
                wrong += 1;
            }
        }
        g.check(wrong == 0, || {
            format!("{wrong} ranks do not name a live account holding their amount")
        });
    }

    fn ledger<'a>(&self, o: &'a Objs) -> Option<&'a Ledger> {
        Some(&o.ledger)
    }
}

/// The final audit conserves, finds every account once, and finds the
/// lanes' vouchers unchanged in total (settling only exchanges them).
pub fn check_audit(r: &AuditReport, accounts: usize, g: &mut Gates) {
    g.check(r.conserved(), || {
        format!("final audit did not conserve: {r:?}")
    });
    g.check(r.accounts == accounts as u64, || {
        format!(
            "final audit found {} accounts, expected {accounts}",
            r.accounts
        )
    });
    let vouchers: u64 = (0..SHARDS)
        .flat_map(|lane| (0..VOUCHERS_PER_LANE).map(move |j| voucher_of(lane, j)))
        .sum();
    g.check(r.voucher_tokens == vouchers, || {
        format!(
            "lanes hold {} voucher tokens, expected {vouchers}",
            r.voucher_tokens
        )
    });
}

/// Close the rank's account and reopen its amount under a fresh id.
fn churn(
    o: &Objs,
    ctl: &Ctl,
    rec: &mut Rec,
    rank: usize,
    id: u64,
    op_id: u64,
    start: u64,
) -> Outcome {
    let l = &o.ledger;
    let parent = rec
        .tr
        .as_deref_mut()
        .map_or(NO_PARENT, |tr| tr.open(Name::Churn, op_id, start));
    let closed = l.close(id);
    let mid = ctl.clock.now();
    // A close can miss an account that a concurrent migrate carries past
    // its shard scan (`Wasted`); the rank then keeps its live account.
    let close_out = match closed {
        Ok(v) if v != amount_of(rank) => Outcome::Failed,
        ref r => classify(r),
    };
    let open_out = match closed {
        Ok(v) if close_out == Outcome::Useful => {
            let r = l.open(v);
            if let Ok(new) = r {
                o.ids[rank].store(new, Ordering::Release);
            }
            Some(classify(&r))
        }
        _ => None,
    };
    if let Some(tr) = rec.tr.as_deref_mut() {
        let end = ctl.clock.now();
        tr.close(
            NO_PARENT,
            Name::Close,
            op_id,
            parent,
            start,
            mid,
            0,
            close_out,
        );
        if let Some(out) = open_out {
            tr.close(NO_PARENT, Name::Open, op_id, parent, mid, end, 0, out);
        }
        let covered = if open_out.is_some() {
            end - start
        } else {
            mid - start
        };
        let out = open_out.unwrap_or(close_out);
        tr.close(
            parent,
            Name::Churn,
            op_id,
            NO_PARENT,
            start,
            end,
            covered,
            out,
        );
    }
    open_out.unwrap_or(close_out)
}

pub fn run(p: &Params) -> Report {
    let b = LedgerMix::new(p.seed, p.scale.accounts, p.scale.ring);
    run_bench(&b, p, p.scale.setup[2])
}

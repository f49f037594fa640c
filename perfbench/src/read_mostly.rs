//! `read_mostly`: two `LfHashMap`s that together hold 2^20 keys, each key
//! in exactly one of them. Keys are picked by Zipf(0.99) rank; 90% of the
//! operations are a `get` on a random map, 10% a `move_keyed` of the key
//! from a random map to the other. Reads run beside writes on the same
//! maps, and traversal plus epoch pinning over a working set far larger
//! than the per-core caches dominate; the commit engine and the allocator
//! barely run.

use crate::drive::{Ctl, WORKERS};
use crate::gen::{self, mix, Zipf};
use crate::rec::{op_id, Name, Outcome, Rec};
use crate::{run_bench, Bench, Gates, Params, Report};
use lfc_core::{move_keyed, MoveOutcome};
use lfc_structures::LfHashMap;

const ZIPF_S: f64 = 0.99;
/// Percent of operations that are `get`.
const GET_PCT: u64 = 90;

/// Operation word: bits 0-23 the key, bit 24 set for a move, bit 25 the
/// map read (or moved from).
const KEY_MASK: u32 = (1 << 24) - 1;
const MOVE_BIT: u32 = 1 << 24;
const MAP_SHIFT: u32 = 25;

pub struct ReadMostly {
    keys: usize,
    rings: Vec<Vec<u32>>,
}

/// The key of Zipf rank `rank`: an odd multiplier permutes `0..keys`, so
/// the hot keys are spread over the key space instead of adjacent.
fn key_of(rank: usize, keys: usize) -> u64 {
    (rank as u64).wrapping_mul(0x9E37_79B1) & (keys as u64 - 1)
}

/// The value stored under `key`; every `get` hit is checked against it.
pub fn value_of(key: u64) -> u64 {
    mix(key) | 1
}

/// The map `key` starts in.
fn home_of(key: u64) -> usize {
    (mix(key ^ 0x5EED) & 1) as usize
}

impl ReadMostly {
    pub fn new(seed: u64, keys: usize, ring: usize) -> Self {
        assert!(keys.is_power_of_two() && keys <= KEY_MASK as usize + 1);
        let zipf = Zipf::new(keys, ZIPF_S);
        let rings = (0..WORKERS as u64)
            .map(|w| {
                let mut r = gen::rng(seed, w);
                gen::ring(ring, || {
                    let key = key_of(zipf.sample(&mut r), keys) as u32;
                    let mv = if r.below(100) < GET_PCT { 0 } else { MOVE_BIT };
                    let map = (r.next_u32() & 1) << MAP_SHIFT;
                    key | mv | map
                })
            })
            .collect();
        ReadMostly { keys, rings }
    }
}

pub type Maps = [LfHashMap<u64, u64>; 2];

impl Bench for ReadMostly {
    type Objs = Maps;
    type Tally = ();

    fn setup(&self) -> Maps {
        let maps = [LfHashMap::new(), LfHashMap::new()];
        for k in 0..self.keys as u64 {
            maps[home_of(k)].insert(k, value_of(k));
        }
        maps
    }

    fn work(&self, maps: &Maps, ctl: &Ctl, rec: &mut Rec, _: &mut ()) {
        let ring = &self.rings[ctl.w];
        let mask = ring.len() - 1;
        let mut i = 0usize;
        let mut start = ctl.clock.now();
        while ctl.running(rec, &mut start) {
            let op = ring[i & mask];
            let key = (op & KEY_MASK) as u64;
            let d = (op >> MAP_SHIFT) as usize & 1;
            let (name, out) = if op & MOVE_BIT == 0 {
                let out = match maps[d].get(&key) {
                    Some(v) if v == value_of(key) => Outcome::Useful,
                    Some(_) => Outcome::Failed,
                    None => Outcome::Wasted,
                };
                (Name::Get, out)
            } else {
                let out = match move_keyed(&maps[d], &key, &maps[1 - d]) {
                    MoveOutcome::Moved => Outcome::Useful,
                    // The key is in the other map (or was moved there while
                    // this move looked): a valid answer that moved nothing.
                    MoveOutcome::SourceEmpty | MoveOutcome::TargetRejected => Outcome::Wasted,
                    MoveOutcome::WouldAlias => Outcome::Failed,
                };
                (Name::MoveKeyed, out)
            };
            let end = ctl.clock.now();
            rec.op(start, end, out);
            if let Some(tr) = rec.tr.as_deref_mut() {
                tr.leaf(name, op_id(ctl.w, i), start, end, out);
            }
            i += 1;
            start = end;
        }
    }

    fn gates(&self, maps: &Maps, _: &[()], g: &mut Gates) {
        check_maps(maps, self.keys, g);
    }
}

/// Every key is in exactly one map, under its own value, and the maps
/// hold nothing else.
pub fn check_maps(maps: &Maps, keys: usize, g: &mut Gates) {
    let (mut wrong, mut first) = (0u64, None);
    for k in 0..keys as u64 {
        let a = maps[0].get(&k);
        let b = maps[1].get(&k);
        let ok = matches!((a, b), (Some(v), None) | (None, Some(v)) if v == value_of(k));
        if !ok {
            wrong += 1;
            first.get_or_insert((k, a, b));
        }
    }
    g.check(wrong == 0, || {
        format!("{wrong} keys not in exactly one map with their value; first {first:?}")
    });
    let held = maps[0].count() + maps[1].count();
    g.check(held == keys, || {
        format!("maps hold {held} entries, expected {keys}")
    });
}

pub fn run(p: &Params) -> Report {
    let b = ReadMostly::new(p.seed, p.scale.keys, p.scale.ring);
    run_bench(&b, p, p.scale.setup[1])
}

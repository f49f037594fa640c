//! Per-thread event counters, summed when read.
//!
//! Each thread owns one cache-line-aligned block of `u64` counters and
//! bumps it with a Relaxed load and store: no lock prefix, and no line
//! shared with another writer. Readers sum the blocks up to the claimed
//! high-water mark, plus a shared fallback block. Blocks are never reset:
//! ownership passes through an Acquire claim and a Release release, so a
//! block keeps its counts across owners and no fold is needed at thread
//! exit. A thread holding a runtime id releases its block only after its
//! exit hooks ran, and bumps after the release land on the fallback.
//! Claiming a block claims no runtime id, and plain `std` atomics keep the
//! registry out of the model checker. DESIGN.md ("Per-thread metrics
//! registry") has the layout and the hand-off argument.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Declares the counters once: the [`Counter`] enum that indexes a block,
/// one section struct per layer, and the [`Snapshot`] that holds them all.
macro_rules! registry {
    ($(
        $(#[$sdoc:meta])*
        $section:ident: $Section:ident {
            $( $(#[$doc:meta])* $field:ident => $Variant:ident, )*
        }
    )*) => {
        /// One event counter; indexes a thread's block.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $($( $(#[$doc])* $Variant, )*)*
        }

        const COUNTERS: usize = [$($(Counter::$Variant,)*)*].len();
        const ALL: [Counter; COUNTERS] = [$($(Counter::$Variant,)*)*];

        $(
            $(#[$sdoc])*
            #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
            pub struct $Section {
                $( $(#[$doc])* pub $field: u64, )*
            }
        )*

        /// Every layer's counters, read in one pass; one section per layer.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Snapshot {
            $( $(#[$sdoc])* pub $section: $Section, )*
        }

        impl Snapshot {
            fn from_counts(c: &[u64; COUNTERS]) -> Self {
                Snapshot {
                    $( $section: $Section {
                        $( $field: c[Counter::$Variant as usize], )*
                    }, )*
                }
            }
        }
    };
}

registry! {
    /// `lfc-alloc`: block allocations and frees.
    alloc: AllocCounts {
        /// Blocks obtained from the system allocator.
        fresh => AllocFresh,
        /// Blocks served from a magazine or the global stack.
        recycled => AllocRecycled,
        /// Blocks returned by callers.
        freed => AllocFreed,
        /// Oversized allocations that bypassed the pool entirely.
        oversize => AllocOversize,
    }
    /// `lfc-hazard`: retires, scans and the stall-robustness tier.
    reclaim: ReclaimCounts {
        /// Allocations handed to `retire`.
        retired => Retired,
        /// Retired allocations whose reclaimer has run.
        reclaimed => Reclaimed,
        /// Retired records diverted into type-stable limbo.
        diverted => Diverted,
        /// Reclamation scans run.
        scans => Scans,
        /// Ejection marks installed on stalled readers.
        ejections => Ejections,
        /// Ejected readers promoted to zombies.
        zombies => Zombies,
    }
    /// `lfc-dcas`: descriptor pools, helping and corpse adoption.
    engine: EngineCounts {
        /// DCAS descriptors served by the per-thread pool.
        desc_pool_hits => DescPoolHits,
        /// DCAS descriptors that fell through to `lfc-alloc`.
        desc_pool_misses => DescPoolMisses,
        /// CASN descriptors served by the per-thread pool.
        casn_pool_hits => CasnPoolHits,
        /// CASN descriptors that fell through to `lfc-alloc`.
        casn_pool_misses => CasnPoolMisses,
        /// RDCSS descriptors served by the per-thread pool.
        rdcss_pool_hits => RdcssPoolHits,
        /// RDCSS descriptors that fell through to `lfc-alloc`.
        rdcss_pool_misses => RdcssPoolMisses,
        /// Helper runs of the DCAS (a `read` that found a descriptor).
        help_runs => HelpRuns,
        /// Marked-descriptor installs that had to be reverted (false
        /// helping).
        stale_mark_reverts => StaleMarkReverts,
        /// Dead threads' announced operations helped to their decision.
        adoptions => Adoptions,
    }
    /// `lfc-structures`: the stack's elimination exchanger.
    structures: StructureCounts {
        /// Push/pop pairs cancelled through the exchanger.
        elim_pairs => ElimPairs,
    }
}

impl AllocCounts {
    /// Blocks allocated and not yet freed. Signed: one thread's block can
    /// free more than it allocated (cross-thread frees).
    pub fn outstanding(&self) -> i64 {
        (self.fresh + self.recycled + self.oversize) as i64 - self.freed as i64
    }
}

impl ReclaimCounts {
    /// Retired records still awaiting reclamation (diverted ones count as
    /// freed: their blocks are back in the pool).
    pub fn pending(&self) -> u64 {
        self.retired
            .saturating_sub(self.reclaimed)
            .saturating_sub(self.diverted)
    }
}

/// One thread's counters. Aligned so two blocks never share a
/// (prefetch-paired) cache line.
#[repr(align(128))]
struct Block {
    counts: [AtomicU64; COUNTERS],
    owned: AtomicBool,
}

impl Block {
    const fn new() -> Self {
        Block {
            counts: [const { AtomicU64::new(0) }; COUNTERS],
            owned: AtomicBool::new(false),
        }
    }
}

/// Enough blocks for every thread the tid registry can hold, and as many
/// again for threads that count without holding an id.
const MAX_BLOCKS: usize = 2 * crate::MAX_THREADS;

static BLOCKS: [Block; MAX_BLOCKS] = [const { Block::new() }; MAX_BLOCKS];

/// Counted with `fetch_add` by threads that hold no block: past their
/// teardown, or with every block taken.
static FALLBACK: Block = Block::new();

/// One past the highest block index ever claimed; readers sum below it.
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's block: `None` until the first bump, `FALLBACK` once
    /// released. No drop glue, so it stays readable while other TLS
    /// destructors run.
    static BLOCK: Cell<Option<&'static Block>> = const { Cell::new(None) };
    static RELEASER: Releaser = const { Releaser };
}

/// Gives the block back when the thread exits, unless the thread's
/// `ThreadSlot` is still to be torn down: then the slot releases it after
/// the exit hooks.
struct Releaser;

impl Drop for Releaser {
    fn drop(&mut self) {
        if !crate::tid::slot_is_live() {
            release_current();
        }
    }
}

#[cold]
fn claim() -> &'static Block {
    // Touching the releaser registers its destructor; past the TLS
    // teardown that is impossible, and nothing could release a block.
    if RELEASER.try_with(|_| ()).is_err() {
        return &FALLBACK;
    }
    for (i, b) in BLOCKS.iter().enumerate() {
        // Acquire pairs with the previous owner's Release in
        // `release_current`: its last counts are visible to our loads.
        if !b.owned.load(Ordering::Relaxed)
            && b.owned
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            HIGH_WATER.fetch_max(i + 1, Ordering::Relaxed);
            return b;
        }
    }
    &FALLBACK
}

/// Give this thread's block back; later bumps land on the fallback.
/// Idempotent.
pub(crate) fn release_current() {
    let b = BLOCK.with(|c| c.replace(Some(&FALLBACK)));
    if let Some(b) = b.filter(|b| !std::ptr::eq(*b, &FALLBACK)) {
        // Release: the next claimant's Acquire sees our last counts.
        b.owned.store(false, Ordering::Release);
    }
}

/// A handle on the calling thread's block. Layers with per-thread state
/// cache one there to skip the thread-local lookup; it must not outlive
/// that state's exit hook. Not `Send`: two threads bumping one block
/// would lose counts.
#[derive(Clone, Copy)]
pub struct Local {
    block: &'static Block,
    _not_send: PhantomData<*const ()>,
}

impl Local {
    /// Add `n` to counter `c`.
    #[inline]
    pub fn add(self, c: Counter, n: u64) {
        let a = &self.block.counts[c as usize];
        if std::ptr::eq(self.block, &FALLBACK) {
            a.fetch_add(n, Ordering::Relaxed);
        } else {
            // Owner-only writer: a plain load+store, no lock prefix.
            a.store(a.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        }
    }

    /// Add one to counter `c`.
    #[inline]
    pub fn bump(self, c: Counter) {
        self.add(c, 1);
    }

    /// This block's counters. Counts of the block's earlier owners are
    /// included, so only the difference of two reads on one thread says
    /// what that thread did.
    pub fn snapshot(self) -> Snapshot {
        Snapshot::from_counts(&ALL.map(|c| self.block.counts[c as usize].load(Ordering::Relaxed)))
    }
}

/// The calling thread's block, claimed on first use.
#[inline]
pub fn local() -> Local {
    let block = BLOCK.with(|c| match c.get() {
        Some(b) => b,
        None => {
            let b = claim();
            c.set(Some(b));
            b
        }
    });
    Local {
        block,
        _not_send: PhantomData,
    }
}

/// Add one to counter `c` on the calling thread's block.
#[inline]
pub fn bump(c: Counter) {
    local().bump(c);
}

fn live_blocks() -> impl Iterator<Item = &'static Block> {
    let hw = HIGH_WATER.load(Ordering::Relaxed);
    BLOCKS[..hw].iter().chain(std::iter::once(&FALLBACK))
}

/// Process-wide totals of the counters `cs`, in one pass over the blocks.
/// Claims nothing.
pub fn totals<const N: usize>(cs: [Counter; N]) -> [u64; N] {
    let mut sum = [0u64; N];
    for b in live_blocks() {
        for (s, &c) in sum.iter_mut().zip(&cs) {
            *s = s.wrapping_add(b.counts[c as usize].load(Ordering::Relaxed));
        }
    }
    sum
}

/// Process-wide total of one counter. Claims nothing.
pub fn total(c: Counter) -> u64 {
    totals([c])[0]
}

/// Process-wide totals of every counter. Claims nothing.
pub fn snapshot() -> Snapshot {
    Snapshot::from_counts(&totals(ALL))
}

//! The software DCAS of paper §3.2.2 / Algorithm 4.
//!
//! A DCAS attempt allocates a [`DcasDesc`], fills in the two CAS triples
//! captured at the composed linearization points, and *announces* the
//! operation by CASing `*ptr1` from `old1` to an unmarked descriptor word
//! (line D10). Helpers — threads whose `read` found the descriptor — then
//! race to install a thread-id-*marked* descriptor word at `*ptr2`
//! (lines D13–D14); the first marked word recorded in the descriptor's `res`
//! field (line D24) is the *winner*, and `*ptr2` is swung from exactly that
//! winner to `new2` (line D29), which makes the swing happen exactly once
//! even when delayed helpers re-install marked words after an ABA of `old2`
//! (the problem the paper's Lemma 3 discusses).
//!
//! Differences from Harris et al.'s MCAS that the paper claims, all present
//! here: the result reports *which* word failed, no RDCSS descriptor is
//! needed, hazard pointers are supported (the `hp1`/`hp2` fields are adopted
//! by helpers at lines D2–D3), and the uncontended case uses fewer CASes.
//!
//! # `res` state machine (tested below)
//!
//! ```text
//! UNDECIDED ──► SECONDFAILED                      (line D17)
//! UNDECIDED ──► winner marked word ──► SUCCESS    (lines D24, D30)
//! ```
//!
//! `SUCCESS` is only ever stored after both `*ptr1 → new1` and
//! `*ptr2 → new2` have happened, and a FIRSTFAILED/SECONDFAILED outcome
//! guarantees neither word was left changed by this DCAS (Lemmata 3–4).

use crate::atomic::DAtomic;
use crate::kcas::{CasnEntry, CasnResult};
use crate::pool::PoolCounters;
use crate::sync::{AtomicUsize, Ordering};
use crate::word::{self, Word};
use lfc_hazard::{slot, Guard};
use lfc_runtime::metrics::{self, Counter};
use lfc_runtime::solo;
use std::alloc::Layout;
use std::cell::Cell;
use std::ptr::NonNull;

/// `res`: operation not yet decided.
const RES_UNDECIDED: usize = 0;
/// `res`: the second word did not match `old2`.
const RES_SECONDFAILED: usize = 1;
/// `res`: both words matched and have been swung to their new values.
const RES_SUCCESS: usize = 2;

/// Outcome of a DCAS, reporting which comparison failed (a capability the
/// paper adds over Harris et al.; the move operation uses it to decide
/// whether to redo only the insert or both operations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DcasResult {
    /// Both words were swung atomically.
    Success,
    /// `*ptr1 != old1`; nothing was changed (only reported to the initiator).
    FirstFailed,
    /// `*ptr2 != old2`; nothing was left changed.
    SecondFailed,
}

/// The DCAS descriptor (paper Algorithm 1's `DCASDesc`).
///
/// All fields except `res` are written only while the descriptor is
/// unpublished (uniquely owned) and are immutable once the announcing CAS
/// publishes it, so helpers may read them through a shared reference.
#[repr(align(512))]
pub struct DcasDesc {
    ptr1: *const DAtomic,
    old1: Word,
    new1: Word,
    /// Base address of the allocation containing `*ptr1`, adopted by helpers
    /// (paper's `hp1`). Zero when no protection is required.
    hp1: usize,
    ptr2: *const DAtomic,
    old2: Word,
    new2: Word,
    /// As `hp1`, for `*ptr2`.
    hp2: usize,
    res: AtomicUsize,
    /// Global era at (re)allocation, forwarded to `retire_with` so zombie
    /// scans can exonerate descriptors born after an ejected reader stalled.
    birth: usize,
}

// Safety: helpers on other threads read the immutable fields and CAS `res`;
// the raw pointers target `DAtomic`s whose allocations the protocol keeps
// alive (hazard adoption, lines D2–D3).
unsafe impl Send for DcasDesc {}
unsafe impl Sync for DcasDesc {}

const DESC_LAYOUT: Layout = Layout::new::<DcasDesc>();

/// Per-thread descriptor pool capacity. A thread can have at most a
/// handful of descriptors logically in flight (one per composed move
/// attempt), but retired descriptors return in scan-sized bursts; 64 keeps
/// those bursts local without hoarding.
pub(crate) const DESC_POOL_CAP: usize = 64;

thread_local! {
    static POOL: crate::pool::PoolCell<DcasDesc> = const { Cell::new(std::ptr::null_mut()) };
}

/// Allocate a descriptor: pool hit, or a fresh pool-backed block.
///
/// `DescHandle::new` on the seed path paid, per DCAS attempt: a size-class
/// lookup plus magazine pop in `lfc-alloc` and a full 9-field descriptor
/// write. The pool (see [`crate::pool`] for the shared machinery and its
/// safety argument) reduces the hit path to one `Vec::pop` and a single
/// `res` reset — the CAS triples are overwritten by `set_first` /
/// `set_second` anyway.
fn reuse_desc(d: NonNull<DcasDesc>) {
    // Safety: unreachable by any other thread (pool contract);
    // Relaxed reset is enough — publication happens-before is
    // established by the announcing CAS, never by this store.
    unsafe { d.as_ref() }
        .res
        .store(RES_UNDECIDED, Ordering::Relaxed);
    // Safety: exclusively owned (pool contract); plain store before
    // publication.
    unsafe { (*d.as_ptr()).birth = lfc_hazard::birth_era() };
    #[cfg(debug_assertions)]
    // Safety: exclusively owned; poison the triple pointers so a
    // commit without set_first/set_second trips the debug asserts.
    unsafe {
        let m = &mut *d.as_ptr();
        m.ptr1 = std::ptr::null();
        m.ptr2 = std::ptr::null();
    }
}

fn init_desc(block: NonNull<DcasDesc>) {
    // Safety: freshly allocated, properly aligned and sized.
    unsafe {
        block.as_ptr().write(DcasDesc {
            ptr1: std::ptr::null(),
            old1: 0,
            new1: 0,
            hp1: 0,
            ptr2: std::ptr::null(),
            old2: 0,
            new2: 0,
            hp2: 0,
            res: AtomicUsize::new(RES_UNDECIDED),
            birth: lfc_hazard::birth_era(),
        });
    }
}

const DESC_COUNTERS: PoolCounters = PoolCounters {
    hit: Counter::DescPoolHits,
    miss: Counter::DescPoolMisses,
};

fn alloc_desc() -> NonNull<DcasDesc> {
    crate::pool::alloc(&POOL, DESC_LAYOUT, DESC_COUNTERS, reuse_desc, init_desc)
}

fn try_alloc_desc() -> Result<NonNull<DcasDesc>, lfc_alloc::AllocError> {
    crate::pool::try_alloc(&POOL, DESC_LAYOUT, DESC_COUNTERS, reuse_desc, init_desc)
}

/// Return an unreachable descriptor to the pool (or the backing allocator).
///
/// # Safety
///
/// `d` must be a live descriptor no thread can reach: either never
/// published, or past its hazard-domain reclamation point.
unsafe fn dealloc_desc(d: NonNull<DcasDesc>) {
    // Safety: forwarded contract.
    unsafe { crate::pool::dealloc(&POOL, DESC_LAYOUT, DESC_POOL_CAP, d) };
}

unsafe fn reclaim_desc(p: *mut u8) {
    // DcasDesc has no drop glue; recycle the block through the pool.
    // Safety: the hazard domain guarantees unreachability.
    unsafe { dealloc_desc(NonNull::new_unchecked(p as *mut DcasDesc)) };
}

/// Uniquely owned, unpublished descriptor.
///
/// The handle encodes the publication protocol in its API: `commit`
/// publishes and runs the DCAS as the initiator, consuming the handle and
/// retiring the descriptor if it became visible to helpers.
pub struct DescHandle {
    desc: NonNull<DcasDesc>,
}

impl std::fmt::Debug for DescHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DescHandle")
            .field("addr", &self.desc.as_ptr())
            .finish()
    }
}

impl DescHandle {
    /// Allocate a fresh descriptor (per-thread pooled, 512-aligned).
    pub fn new() -> Self {
        DescHandle { desc: alloc_desc() }
    }

    /// Fallible [`Self::new`]: `Err` when the pool is empty and the backing
    /// allocation fails (or the `dcas.desc` / `alloc.block` fault site
    /// fires).
    pub fn try_new() -> Result<Self, lfc_alloc::AllocError> {
        if lfc_runtime::fault::check("dcas.desc") {
            return Err(lfc_alloc::AllocError);
        }
        Ok(DescHandle {
            desc: try_alloc_desc()?,
        })
    }

    fn desc(&self) -> &DcasDesc {
        // Safety: uniquely owned and initialized.
        unsafe { self.desc.as_ref() }
    }

    fn desc_mut(&mut self) -> &mut DcasDesc {
        // Safety: unpublished handles are uniquely owned.
        unsafe { self.desc.as_mut() }
    }

    /// Record the first (remove-side) CAS triple. `hp1` is the base address
    /// of the allocation containing `*ptr1` (0 if none is needed).
    pub fn set_first(&mut self, ptr1: &DAtomic, old1: Word, new1: Word, hp1: usize) {
        let d = self.desc_mut();
        d.ptr1 = ptr1;
        d.old1 = old1;
        d.new1 = new1;
        d.hp1 = hp1;
    }

    /// Record the second (insert-side) CAS triple.
    pub fn set_second(&mut self, ptr2: &DAtomic, old2: Word, new2: Word, hp2: usize) {
        let d = self.desc_mut();
        d.ptr2 = ptr2;
        d.old2 = old2;
        d.new2 = new2;
        d.hp2 = hp2;
    }

    /// Record the first triple from a prepared engine entry
    /// (the unified commit's K=2 dispatch, [`crate::engine`]). Crate-only:
    /// the entry's raw `ptr` is dereferenced by `commit`, so the liveness
    /// obligation stays inside the engine's `commit_entries` contract.
    pub(crate) fn set_first_from(&mut self, e: &CasnEntry) {
        let d = self.desc_mut();
        d.ptr1 = e.ptr;
        d.old1 = e.old;
        d.new1 = e.new;
        d.hp1 = e.hp;
    }

    /// Record the second triple from a prepared engine entry.
    pub(crate) fn set_second_from(&mut self, e: &CasnEntry) {
        let d = self.desc_mut();
        d.ptr2 = e.ptr;
        d.old2 = e.old;
        d.new2 = e.new;
        d.hp2 = e.hp;
    }

    /// Publish the descriptor and run the DCAS as the initiating process.
    ///
    /// Returns the result plus a handle for the next attempt: a handle
    /// carrying the first-side triple after `FirstFailed`/`SecondFailed`
    /// (paper line M30, `new DCASDesc(desc)`), and `None` after `Success`.
    ///
    /// # Uncontended fast path
    ///
    /// In the solo regime ([`lfc_runtime::solo`]) — this thread is the only
    /// registered thread, and the registration handshake keeps it that way
    /// for the duration — no helper can observe the operation, so the
    /// descriptor is never published: the two CASes run back to back, with
    /// a revert of the first on a second-word mismatch. The intermediate
    /// state is unobservable by construction, which is exactly the
    /// atomicity the descriptor protocol exists to provide.
    pub fn commit(self, g: &Guard) -> (DcasResult, Option<DescHandle>) {
        let addr = self.desc.as_ptr() as usize;
        debug_assert_eq!(
            self.desc().res.load(Ordering::Relaxed),
            RES_UNDECIDED,
            "descriptor reuse after publication"
        );
        debug_assert!(!self.desc().ptr1.is_null() && !self.desc().ptr2.is_null());

        {
            let d = self.desc();
            // Aliased words can never succeed and take the slow path so the
            // outcome matches the published protocol (SECONDFAILED: the
            // second comparison sees the announcement, not `old2`).
            if !std::ptr::eq(d.ptr1, d.ptr2) {
                if let Some(_solo) = solo::try_enter() {
                    // The DCAS solo path is the K=2 instance of the engine's
                    // shared solo commit (`kcas::solo_commit`): run the CASes
                    // back to back, reverting on a mismatch. Safety: target
                    // allocations are kept alive by the initiating
                    // operation's borrows/hazards, as on the slow path.
                    let entries = [
                        CasnEntry {
                            ptr: d.ptr1,
                            old: d.old1,
                            new: d.new1,
                            hp: d.hp1,
                        },
                        CasnEntry {
                            ptr: d.ptr2,
                            old: d.old2,
                            new: d.new2,
                            hp: d.hp2,
                        },
                    ];
                    return match crate::kcas::solo_commit(&entries) {
                        // Never published: the handle is reused directly
                        // (its first triple is intact) or, on success,
                        // Drop recycles it straight into the pool.
                        CasnResult::Success => (DcasResult::Success, None),
                        CasnResult::FailedAt(0) => (DcasResult::FirstFailed, Some(self)),
                        CasnResult::FailedAt(_) => (DcasResult::SecondFailed, Some(self)),
                    };
                }
            }
        }

        // Announce the in-flight operation in the adoption table before
        // publication: from here until `clear_announce`, a survivor can
        // complete this DCAS on our behalf if we die
        // (`crate::adopt_dead_threads`). The kill site models exactly that
        // death.
        // One armed-generation load covers every kill site this commit
        // passes (announce, publish, and any helping it triggers).
        let fg = lfc_runtime::fault::gate();
        crate::adopt::announce(g.tid(), word::dcas_plain(addr));
        fg.check_kill("dcas.announced");
        // Safety: we own the descriptor; `dcas_run_gated` publishes it.
        let result = unsafe { dcas_run_gated(word::dcas_plain(addr), true, g, fg) };
        crate::adopt::clear_announce(g.tid());
        match result {
            DcasResult::FirstFailed => {
                // Announcement failed: never published, safe to reuse.
                (result, Some(self))
            }
            DcasResult::SecondFailed => {
                // Published (helpers may hold it): retire, hand back a fresh
                // copy of the first-side triple for the insert retry.
                let mut fresh = DescHandle::new();
                {
                    let d = self.desc();
                    let f = fresh.desc_mut();
                    f.ptr1 = d.ptr1;
                    f.old1 = d.old1;
                    f.new1 = d.new1;
                    f.hp1 = d.hp1;
                }
                self.retire();
                (result, Some(fresh))
            }
            DcasResult::Success => {
                self.retire();
                (result, None)
            }
        }
    }

    /// Publish and run the DCAS as the initiator, without the retry
    /// hand-back of [`Self::commit`]: the unified engine
    /// ([`crate::engine::commit_entries`]) re-captures its entries into a
    /// fresh pooled handle on retry, so copying the first-side triple into
    /// a new descriptor here would round-trip a pooled block per contended
    /// failure for nothing. The solo regime is likewise the engine's job
    /// (its regime 1), dispatched before this path is reached, and the
    /// engine's alias detection guarantees the two words are distinct.
    pub(crate) fn commit_engine(self, g: &Guard) -> DcasResult {
        let addr = self.desc.as_ptr() as usize;
        debug_assert_eq!(
            self.desc().res.load(Ordering::Relaxed),
            RES_UNDECIDED,
            "descriptor reuse after publication"
        );
        debug_assert!(!self.desc().ptr1.is_null() && !self.desc().ptr2.is_null());
        debug_assert!(
            !std::ptr::eq(self.desc().ptr1, self.desc().ptr2),
            "engine entries are pairwise distinct"
        );

        // Announce for adoption (see `commit`), then publish. One
        // armed-generation load gates every kill site of this commit.
        let fg = lfc_runtime::fault::gate();
        crate::adopt::announce(g.tid(), word::dcas_plain(addr));
        fg.check_kill("dcas.announced");
        // Safety: we own the descriptor; `dcas_run_gated` publishes it.
        let result = unsafe { dcas_run_gated(word::dcas_plain(addr), true, g, fg) };
        crate::adopt::clear_announce(g.tid());
        if let DcasResult::FirstFailed = result {
            // Announcement failed: never published, so Drop recycles the
            // block straight into the pool.
            drop(self);
        } else {
            // Published (helpers may hold it): through the hazard domain.
            self.retire();
        }
        result
    }

    /// Retire the (published) descriptor through the hazard domain.
    ///
    /// Uses `retire_with`: descriptors carry their allocation era so a
    /// zombie scan can exonerate ones born after the stall, and — having no
    /// drop glue — they divert straight into the type-stable pool when a
    /// zombie pins them.
    fn retire(self) {
        let birth = self.desc().birth;
        let p = self.desc.as_ptr() as *mut u8;
        std::mem::forget(self);
        // Safety: decided descriptors are unreachable except through stale
        // marked words, whose readers fail hazard validation (module docs).
        unsafe {
            lfc_hazard::retire_with(
                p,
                reclaim_desc,
                lfc_hazard::RetireInfo {
                    bytes: std::mem::size_of::<DcasDesc>(),
                    birth,
                    divert: Some(reclaim_desc),
                },
            )
        };
    }
}

impl Drop for DescHandle {
    fn drop(&mut self) {
        // An abandoning thread (injected death, `lfc_runtime::fault`) may
        // be unwinding out of `dcas_run` with the descriptor *published*:
        // recycling it here would hand helpers a reused block. Leak it —
        // the corpse's announce-table entry keeps it findable, and the
        // documented leak bound charges one descriptor per abandonment.
        if lfc_runtime::fault::thread_is_abandoning() {
            return;
        }
        // Unpublished handle dropped without commit (e.g. move aborted in
        // the remove init-phase, or a solo fast-path success): no helper
        // can know the address, so it goes straight back to the pool.
        // Safety: uniquely owned.
        unsafe { dealloc_desc(self.desc) };
    }
}

impl Default for DescHandle {
    fn default() -> Self {
        Self::new()
    }
}

/// Process-wide diagnostic counters (reads of `lfc_runtime::metrics`;
/// used by the false-helping ablation bench and the pooling tests).
pub mod counters {
    use lfc_runtime::metrics::{total, Counter};

    /// Number of helper invocations of the DCAS (each is a `read` that found
    /// a descriptor and joined the protocol).
    pub fn help_runs() -> usize {
        total(Counter::HelpRuns) as usize
    }

    /// Descriptor allocations served by the per-thread pool.
    pub fn desc_pool_hits() -> usize {
        total(Counter::DescPoolHits) as usize
    }

    /// Descriptor allocations that fell through to `lfc-alloc`.
    pub fn desc_pool_misses() -> usize {
        total(Counter::DescPoolMisses) as usize
    }
}

/// Help a published DCAS found in a word (non-initiator entry point).
///
/// # Safety
///
/// `desc_word` must reference a descriptor currently protected by the
/// caller's [`slot::DESC`] hazard and validated as still installed.
pub(crate) unsafe fn help(desc_word: Word, g: &Guard) {
    // Kill site at the helping boundary: a helper that dies here has
    // published nothing yet — its only obligation (the DESC hazard) stays
    // protected by its corpse bank until adoption. One armed-generation
    // load gates this and the nested `dcas.published` site.
    let fg = lfc_runtime::fault::gate();
    fg.check_kill("dcas.help");
    metrics::bump(Counter::HelpRuns);
    // Safety: forwarded contract.
    let _ = unsafe { dcas_run_gated(desc_word, false, g, fg) };
}

/// Whether `plain`'s descriptor is currently installed at its first word
/// — adoption's publication test.
///
/// The D10 first-word install is initiator-only: [`dcas_run`] as a helper
/// assumes it already happened, installs the marked word at `*ptr2`, and
/// "commits" with the `*ptr1` swing CAS failing silently — a torn
/// half-DCAS — if the initiator in fact never published. An adopter must
/// therefore never help a corpse's *announced-but-unpublished* DCAS.
/// `*ptr1` holds `plain` exactly between D10 and the decided swing/revert,
/// and an abandoned descriptor is leaked (its address is never re-minted),
/// so a single load is a stable test: `false` means never-published or
/// already-decided, and with the initiator dead neither can change — there
/// is nothing left to complete.
///
/// # Safety
///
/// `plain`'s descriptor must be alive with its first triple recorded
/// (announce-table contract: `announce` happens after `set_first`).
pub(crate) unsafe fn dcas_is_published(plain: Word) -> bool {
    // Safety: descriptor alive per contract; `ptr1` was set before the
    // announce made `plain` visible to adopters.
    let desc = unsafe { &*(word::desc_addr(plain) as *const DcasDesc) };
    unsafe { &*desc.ptr1 }.load_word() == plain
}

fn decode(res: usize) -> DcasResult {
    match res {
        RES_SUCCESS => DcasResult::Success,
        RES_SECONDFAILED => DcasResult::SecondFailed,
        other => unreachable!("undecided res {other} treated as decided"),
    }
}

/// The DCAS protocol, lines D1–D31.
///
/// # Safety
///
/// The descriptor referenced by `desc_word` must be kept alive for the
/// duration of the call: by ownership for the initiator, by the `DESC`
/// hazard for helpers. Helpers must additionally have validated that the
/// word they came through still held `desc_word` after protecting it.
pub unsafe fn dcas_run(desc_word: Word, initiator: bool, g: &Guard) -> DcasResult {
    // Safety: forwarded contract.
    unsafe { dcas_run_gated(desc_word, initiator, g, lfc_runtime::fault::gate()) }
}

/// [`dcas_run`] with the caller's [`lfc_runtime::fault::FaultGate`]
/// snapshot, so a commit pays for the armed-generation load exactly once
/// across all its kill sites.
///
/// # Safety
///
/// As [`dcas_run`].
pub(crate) unsafe fn dcas_run_gated(
    desc_word: Word,
    initiator: bool,
    g: &Guard,
    fg: lfc_runtime::fault::FaultGate,
) -> DcasResult {
    let addr = word::desc_addr(desc_word);
    // Safety: per the function contract the descriptor is alive.
    let desc = unsafe { &*(addr as *const DcasDesc) };

    if !initiator {
        // D2–D3: adopt the initiator's protections of the two target
        // allocations before touching `*ptr1` / `*ptr2`. If `res` is still
        // undecided below, the initiator is still inside its operation and
        // its own hazards covered these allocations while we published ours
        // (paper Lemma 6); otherwise we only write through the word we were
        // validated to have come through, whose allocation our caller
        // already protects.
        g.set(slot::HELP1, desc.hp1);
        g.set(slot::HELP2, desc.hp2);
    }
    let result = dcas_body(desc, desc_word, initiator, g, fg);
    if !initiator {
        g.clear(slot::HELP1);
        g.clear(slot::HELP2);
    }
    result
}

fn dcas_body(
    desc: &DcasDesc,
    desc_word: Word,
    initiator: bool,
    g: &Guard,
    fg: lfc_runtime::fault::FaultGate,
) -> DcasResult {
    let addr = word::desc_addr(desc_word);
    let plain = word::dcas_plain(addr);
    // Safety: target words' allocations are protected per `dcas_run`'s
    // contract (initiator's operation hazards / adopted hazards above).
    let ptr1 = unsafe { &*desc.ptr1 };
    let ptr2 = unsafe { &*desc.ptr2 };

    // D4–D9: already decided — fix up the word we came through and return.
    // SeqCst (audited, required): for a helper this load is the validation
    // half of the Dekker pair with the HELP1/HELP2 hazard stores in
    // `dcas_run` — if `res` is still undecided, the initiator is still
    // inside its operation and its hazards covered the target allocations
    // while ours were published (Lemma 6). An Acquire load could be
    // satisfied before those hazard stores became visible to a scanner.
    let r0 = desc.res.load(Ordering::SeqCst);
    if r0 == RES_SUCCESS || r0 == RES_SECONDFAILED {
        finish_decided(desc, desc_word, plain, r0, ptr1, ptr2);
        return decode(r0);
    }

    // D10–D11: the initiator announces the operation. The CAS's Release
    // publishes the descriptor's (immutable) fields to every helper that
    // Acquire-reads the word.
    if initiator {
        if !ptr1.cas_word(desc.old1, plain) {
            return DcasResult::FirstFailed;
        }
        // Kill site: the initiator dies with the descriptor installed at
        // `*ptr1` and the second word untouched — the worst-case torn
        // state. Survivors complete it via `read`-helping or adoption.
        fg.check_kill("dcas.published");
    }

    // D13–D14: try to install our marked descriptor at the second word.
    let my_mark = word::dcas_marked(addr, g.tid());
    let p2set = ptr2.cas_word(desc.old2, my_mark);

    // Choose the marked word to promote as winner: ours if we installed it;
    // otherwise, if some marked form of this descriptor is installed, that
    // one (this is the D15–D16 re-check: `*ptr2` still refers to `desc`).
    let installed = if p2set {
        my_mark
    } else {
        let cur = ptr2.load_word();
        if word::is_marked_dcas(cur) && word::desc_addr(cur) == addr {
            cur
        } else {
            // D17: genuine mismatch — try to decide SECONDFAILED.
            // AcqRel/Acquire (audited): decisions are serialized by this
            // RMW's modification order on `res` alone; no cross-location
            // fence is involved. Release publishes nothing here (failure
            // changes no word), Acquire pairs with the winning side's
            // Release so the post-decision fix-ups below see its writes.
            let _ = desc.res.compare_exchange(
                RES_UNDECIDED,
                RES_SECONDFAILED,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            // Acquire (audited): pairs with the Release of whichever RMW
            // decided `res`; same-location coherence gives the latest
            // decision.
            let r = desc.res.load(Ordering::Acquire);
            if r == RES_SUCCESS {
                return DcasResult::Success; // D18–D19
            }
            if r == RES_SECONDFAILED {
                // D20–D22: revert the announcement.
                ptr1.cas_word(plain, desc.old1);
                return DcasResult::SecondFailed;
            }
            // A winner was recorded concurrently; help complete with it.
            r
        }
    };

    // D24: promote the installed marked word. While `res` is undecided the
    // second word cannot change (all competing CASes expect `old2`), so a
    // successful promotion certifies `installed` is in place — an argument
    // built on same-location coherence of `*ptr2` and the total
    // modification order of `res`, neither of which needs SeqCst.
    // AcqRel/Acquire (audited) as at D17.
    let _ = desc.res.compare_exchange(
        RES_UNDECIDED,
        installed,
        Ordering::AcqRel,
        Ordering::Acquire,
    );
    // Acquire (audited): as at D17.
    let r = desc.res.load(Ordering::Acquire);

    if r == RES_SECONDFAILED {
        // D25–D27: decision went against us; undo our installation (if any)
        // and make sure the announcement is reverted.
        if p2set && ptr2.cas_word(my_mark, desc.old2) {
            metrics::bump(Counter::StaleMarkReverts);
        }
        ptr1.cas_word(plain, desc.old1);
        return DcasResult::SecondFailed;
    }
    if r == RES_SUCCESS {
        // Completed by other processes. If we installed a marked word it is
        // a stale ABA leftover (the winner's word was consumed before
        // SUCCESS was stored): revert it.
        if p2set && ptr2.cas_word(my_mark, desc.old2) {
            metrics::bump(Counter::StaleMarkReverts);
        }
        return DcasResult::Success;
    }

    debug_assert!(word::is_marked_dcas(r) && word::desc_addr(r) == addr);
    let winner = r;
    if p2set && my_mark != winner {
        // We installed but lost the promotion race ("will have to change it
        // back to its old value", Lemma 3).
        if ptr2.cas_word(my_mark, desc.old2) {
            metrics::bump(Counter::StaleMarkReverts);
        }
    }
    // D28–D30: complete. `*ptr1` swings from the announcement to `new1`
    // exactly once; `*ptr2` swings from exactly the winner to `new2` exactly
    // once; only then is SUCCESS published. AcqRel/Acquire (audited): the
    // Release orders both swings before SUCCESS for any Acquire reader of
    // `res`; the swings themselves are AcqRel CASes on their own words.
    ptr1.cas_word(plain, desc.new1);
    ptr2.cas_word(winner, desc.new2);
    let _ = desc
        .res
        .compare_exchange(winner, RES_SUCCESS, Ordering::AcqRel, Ordering::Acquire);
    DcasResult::Success
}

/// Lines D5–D8: the operation is decided but the word we came through still
/// held a descriptor — clean it up so readers can make progress.
fn finish_decided(
    desc: &DcasDesc,
    desc_word: Word,
    plain: Word,
    res: usize,
    ptr1: &DAtomic,
    ptr2: &DAtomic,
) {
    if word::is_marked_dcas(desc_word) {
        // Came through `*ptr2` holding a stale marked word (on SUCCESS the
        // winner was consumed before SUCCESS was stored, so whatever is
        // still installed is an ABA leftover; on SECONDFAILED every
        // installation is stale): revert it.
        if ptr2.cas_word(desc_word, desc.old2) {
            metrics::bump(Counter::StaleMarkReverts);
        }
    } else if res == RES_SECONDFAILED {
        // Came through `*ptr1`: only a failed pair leaves the announcement
        // to revert (on SUCCESS `*ptr1` already holds `new1`).
        ptr1.cas_word(plain, desc.old1);
    }
}

/// Test-support hooks exposing protocol internals so the suite can exercise
/// helper paths with a deterministically stalled initiator.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Announce `handle` (line D10 only) and "stall": returns the plain
    /// descriptor word now installed at `*ptr1`, or gives the handle back if
    /// the announcement failed. The caller takes over the initiator's
    /// responsibility to eventually run/finish and retire the descriptor.
    pub fn announce_only(handle: DescHandle) -> Result<Word, DescHandle> {
        let addr = handle.desc.as_ptr() as usize;
        let plain = word::dcas_plain(addr);
        let d = handle.desc();
        // Safety: handle owns the descriptor; ptr1 was set by the test.
        let ptr1 = unsafe { &*d.ptr1 };
        if ptr1.cas_word(d.old1, plain) {
            std::mem::forget(handle);
            Ok(plain)
        } else {
            Err(handle)
        }
    }

    /// Run the protocol for a previously announced descriptor as if the
    /// stalled initiator resumed.
    ///
    /// # Safety
    ///
    /// `desc_word` must come from [`announce_only`] and the descriptor must
    /// not have been finished+retired yet.
    pub unsafe fn resume(desc_word: Word, g: &Guard) -> DcasResult {
        // Resuming initiator: already announced, so run as a helper but
        // translate the result for the caller.
        unsafe { dcas_run(desc_word, false, g) }
    }

    /// Retire a descriptor obtained from [`announce_only`] once decided.
    ///
    /// # Safety
    ///
    /// Must be called exactly once, after the DCAS is decided.
    pub unsafe fn retire_announced(desc_word: Word) {
        let p = word::desc_addr(desc_word) as *mut u8;
        // Safety: the descriptor is alive (forwarded contract), so its
        // birth field is readable.
        let birth = unsafe { (*(p as *const DcasDesc)).birth };
        // Safety: forwarded contract.
        unsafe {
            lfc_hazard::retire_with(
                p,
                reclaim_desc,
                lfc_hazard::RetireInfo {
                    bytes: std::mem::size_of::<DcasDesc>(),
                    birth,
                    divert: Some(reclaim_desc),
                },
            )
        };
    }

    /// Current `res` state, decoded loosely for assertions.
    ///
    /// # Safety
    ///
    /// Descriptor must still be alive.
    pub unsafe fn res_state(desc_word: Word) -> usize {
        let desc = unsafe { &*(word::desc_addr(desc_word) as *const DcasDesc) };
        // Acquire (audited): test assertions only need the latest decision
        // via `res`'s own modification order.
        desc.res.load(Ordering::Acquire)
    }
}

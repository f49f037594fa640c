//! The unified composition engine: **one** state machine for every composed
//! operation.
//!
//! The seed reproduced the paper's §8 extension ("n operations on n
//! distinct objects") as three hand-duplicated `scas` state machines
//! (`move_one`, `move_keyed`, `move_to_all`) over two disjoint descriptor
//! engines. This module replaces all three with a single engine:
//!
//! * a composition is a nest of **stages**, each owning one entry index;
//!   stage *i* runs its operation (a remove or an insert, keyed or not),
//!   captures the operation's linearization-point CAS triple at its entry,
//!   and invokes stage *i*+1 from inside the capture;
//! * the innermost stage commits every captured entry through
//!   [`lfc_dcas::commit_entries`], where the paper's DCAS is the K=2
//!   specialization of CASN and both share pooled descriptors and the
//!   solo-regime fast path;
//! * a commit failure at entry *k* aborts the stages deeper than *k* and
//!   re-runs the init phase of exactly the operation owning entry *k* — the
//!   generalization of the paper's FIRSTFAILED/SECONDFAILED retry rule.
//!
//! Aliased entries (two linearization points on the **same** memory word —
//! e.g. a stack moved onto itself, or a swap involving a LIFO whose push
//! and pop linearize on one word) are detected generically at capture time
//! and surface as [`MoveOutcome::WouldAlias`] / [`SwapOutcome::WouldAlias`]:
//! a k-word CAS cannot express two CASes on one word.
//!
//! On top of the engine this module ships the compositions the three old
//! machines could not express — [`swap`], [`move_keyed_to_all`],
//! [`move_keyed_to_unkeyed`] — and the public [`Composition`] builder for
//! user-defined chains mixing keyed and unkeyed stages.
//!
//! # Hazard discipline: capture-time promotion (PR 3)
//!
//! Structure traversals are protected by an *operation epoch*
//! ([`lfc_hazard::pin_op`]) rather than per-node hazards, and each nested
//! stage's epoch ends when its operation returns — before the engine is
//! done with the captured entries (`finish` runs after the outermost
//! remove returns, and DCAS/CASN helpers validate their adopted
//! protections against *hazards*, not epochs). The engine therefore
//! **promotes** every captured entry's allocation from epoch protection to
//! a dedicated [`slot::ENTRY0`] hazard slot at capture time — while the
//! capturing operation's epoch still covers it, so the protection is
//! continuous — and releases the slots when the composition resolves.
//! This is also what keeps nested same-role stages from clobbering each
//! other: every entry owns its own slot, so the *n*-th insert of a fan-out
//! can never overwrite the (*n*−1)-th insert's protection.
//!
//! # Ejection and composition (PR 6)
//!
//! The stall-robustness tier ([`lfc_hazard`]'s era/ejection machinery) needs
//! no engine support, for three reasons:
//!
//! * **Nested ops never restart.** [`lfc_hazard::OpGuard::repin_if_ejected`]
//!   refuses at nesting depth > 1, so an ejection observed by a stage that
//!   runs *inside* another stage's capture is deferred: the structure's
//!   retry-head check returns `false` and the op proceeds under the still-
//!   valid old-era protection (an ejection mark does not revoke protection —
//!   the marked slot keeps gating reclamation until the owner acknowledges).
//! * **ACK happens at outermost exit.** The outermost guard's drop stores 0
//!   to the epoch slot, which doubles as the ejection acknowledgement; by
//!   then `finish` has already released the ENTRY promotions.
//! * **Captured words survive ejection.** Promotion moves each captured
//!   entry's allocation to an ENTRY *hazard* slot, and hazards are immune to
//!   ejection — zombie partitioning only bypasses the epoch side of the free
//!   rule, never a named hazard. A composition whose thread is ejected (or
//!   even zombified) mid-commit therefore still holds every captured word.

use crate::{
    InsertCtx, InsertOutcome, KeyedMoveSource, KeyedMoveTarget, LinPoint, MoveOutcome, MoveSource,
    MoveTarget, RemoveCtx, RemoveOutcome, ScasResult,
};
use lfc_alloc::AllocError;
use lfc_dcas::{commit_entries, try_commit_entries, CasnEntry, CasnResult, DAtomic};
use lfc_hazard::{pin, slot, Guard};

pub use lfc_dcas::MAX_ENTRIES;

/// Maximum number of insert targets of a fan-out (`MAX_ENTRIES` minus the
/// remove entry).
pub const MAX_TARGETS: usize = MAX_ENTRIES - 1;

/// The stage that permanently ended a composition, for outcome reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dead {
    /// The remove at this stage found its source empty (or the key absent).
    Empty(usize),
    /// The insert at this stage was permanently rejected (bounded target
    /// full, duplicate key).
    Rejected(usize),
}

/// Shared state of one composition invocation: the captured entries plus
/// the retry bookkeeping the paper keeps in `desc`, `insfailed`, `ltarget`.
///
/// Opaque outside the crate — it appears in [`Stages`]' hidden method
/// signature but can only be constructed and driven by the engine itself.
pub struct Engine {
    g: Guard,
    entries: [CasnEntry; MAX_ENTRIES],
    count: usize,
    /// Total number of stages in this composition's plan.
    plan: usize,
    /// True until some attempt reaches a commit (paper's `insfailed`).
    no_commit: bool,
    aliased: bool,
    /// Entry index whose owning stage must redo its init phase.
    retry_at: Option<usize>,
    dead: Option<Dead>,
    /// Commit failures this composition may still absorb before giving up
    /// (`None` = unbounded, the default). The batched front-end's *direct*
    /// attempts run with a small budget: a contended composition that
    /// burns through it aborts with [`Engine::starved`] set and falls back
    /// to the claim-list group commit instead of fighting the hot words.
    fail_budget: Option<u32>,
    /// Whether the composition aborted because `fail_budget` ran out
    /// (contention starvation), as opposed to a semantic rejection.
    starved: bool,
    /// Commit through [`try_commit_entries`], recording allocation failure
    /// in `oom` instead of panicking (the `try_*` composition entry
    /// points).
    fallible: bool,
    /// A fallible commit failed to allocate; the composition aborted with
    /// nothing changed and the entry point surfaces `Err(AllocError)`.
    oom: bool,
    /// Set by [`Engine::finish`]; an engine dropped without it is
    /// unwinding (panicking element `Clone`, injected abandonment) and
    /// cleans its ENTRY protections in `Drop`.
    finished: bool,
}

impl Engine {
    pub(crate) fn new(plan: usize) -> Engine {
        debug_assert!(
            (2..=MAX_ENTRIES).contains(&plan),
            "compositions span 2..={MAX_ENTRIES} stages"
        );
        debug_assert!(plan <= slot::ENTRY_COUNT);
        Engine {
            g: pin(),
            entries: [CasnEntry::default(); MAX_ENTRIES],
            count: 0,
            plan,
            no_commit: true,
            aliased: false,
            retry_at: None,
            dead: None,
            fail_budget: None,
            starved: false,
            fallible: false,
            oom: false,
            finished: false,
        }
    }

    /// An engine whose commits surface allocation failure through
    /// [`Engine::oom`] instead of panicking (the `try_*` entry points).
    pub(crate) fn new_fallible(plan: usize) -> Engine {
        let mut eng = Engine::new(plan);
        eng.fallible = true;
        eng
    }

    /// Whether a fallible commit aborted on allocation failure.
    pub(crate) fn oom(&self) -> bool {
        self.oom
    }

    /// A budgeted engine for the batched front-end's direct attempts (see
    /// [`Engine::fail_budget`]). Budgeted engines also commit *fallibly*:
    /// the gate's OOM fallback runs direct attempts under exactly the
    /// memory pressure that failed its node allocation, so a descriptor
    /// refill there must surface as [`Engine::oom`] (the caller retries or
    /// falls back) rather than reach the aborting allocator.
    pub(crate) fn new_budgeted(plan: usize, fail_budget: u32) -> Engine {
        let mut eng = Engine::new(plan);
        eng.fail_budget = Some(fail_budget);
        eng.fallible = true;
        eng
    }

    /// Whether the composition aborted on budget exhaustion rather than a
    /// semantic rejection.
    pub(crate) fn starved(&self) -> bool {
        self.starved
    }

    /// Whether the last abort was an aliasing rejection.
    pub(crate) fn was_aliased(&self) -> bool {
        self.aliased
    }

    /// Whether the composition died because the remove at stage `idx`
    /// found its source empty (swap verdict mapping).
    pub(crate) fn empty_at(&self, idx: usize) -> bool {
        self.dead == Some(Dead::Empty(idx))
    }

    /// Record stage `idx`'s linearization point; `false` means the word
    /// aliases an earlier entry and the stage must abort.
    pub(crate) fn capture(&mut self, idx: usize, lp: &LinPoint<'_>) -> bool {
        debug_assert!(idx < self.plan);
        if idx == 0 {
            // A fresh attempt from the outermost stage: nothing has
            // committed yet and no pending retry survives a full redo
            // (paper line M15 generalized).
            self.no_commit = true;
            self.retry_at = None;
        }
        let word = lp.word as *const DAtomic;
        if self.entries[..idx]
            .iter()
            .any(|e| std::ptr::eq(e.ptr, word))
        {
            self.aliased = true;
            return false;
        }
        self.entries[idx] = CasnEntry {
            ptr: word,
            old: lp.old,
            new: lp.new,
            hp: lp.hp,
        };
        self.count = idx + 1;
        // Capture-time promotion (module docs): the capturing operation's
        // epoch (or, for header words, its borrow) still covers `hp` here,
        // so publishing it in the engine-owned slot makes the protection
        // continuous — and the hazard then outlives the nested operations'
        // epochs, which end when they return, before the commit's
        // descriptor teardown and `finish` run. `promote` (Release) is
        // sufficient: scans sweep epochs before hazards, so a scan that
        // sees the covering epoch exited has acquired this store.
        self.g.promote(slot::ENTRY0 + idx, lp.hp);
        true
    }

    /// Commit every captured entry; returns the innermost stage's
    /// "deeper succeeded" verdict.
    pub(crate) fn commit(&mut self) -> bool {
        debug_assert_eq!(self.count, self.plan);
        self.no_commit = false;
        // Safety: every entry was captured by `capture` from a live
        // `&DAtomic` whose allocation the owning operation's borrows and
        // hazards (plus the ENTRY* handoff slots) keep alive through this
        // call, and `capture` rejects aliased words, so the entries are
        // pairwise distinct.
        let r = if self.fallible {
            match unsafe { try_commit_entries(&self.entries[..self.count], &self.g) } {
                Ok(r) => r,
                Err(_) => {
                    // Descriptor/RDCSS allocation failed with no word left
                    // changed. `retry_at` stays `None` and `no_commit` is
                    // false, so `resolve` aborts every stage and the entry
                    // point reports `Err(AllocError)`.
                    self.oom = true;
                    return false;
                }
            }
        } else {
            unsafe { commit_entries(&self.entries[..self.count], &self.g) }
        };
        match r {
            CasnResult::Success => true,
            CasnResult::FailedAt(k) => {
                self.retry_at = Some(k);
                false
            }
        }
    }

    /// Seeded-bug support (`model_toggles::SKIP_FLAG_ENTRY`): commit only
    /// the structure entries captured so far — *without* the result-flag
    /// entry the batched front-end relies on for exactly-once execution.
    /// This is the naive handoff protocol: the flag is then published by a
    /// separate CAS after the commit, leaving a window in which a second
    /// drainer re-executes the request and double-commits. Exists only so
    /// the model checker can demonstrate it catches that bug.
    #[cfg(lfc_model)]
    pub(crate) fn commit_without_flag(&mut self) -> bool {
        self.no_commit = false;
        // Safety: same as `commit` — entries `..count` were captured live.
        match unsafe { commit_entries(&self.entries[..self.count], &self.g) } {
            CasnResult::Success => true,
            CasnResult::FailedAt(k) => {
                self.retry_at = Some(k);
                false
            }
        }
    }

    /// Translate a stage's "deeper" verdict into the `scas` result for the
    /// operation owning entry `idx` — the single copy of the
    /// FIRSTFAILED/SECONDFAILED generalization.
    fn resolve(&mut self, idx: usize, deeper_ok: bool) -> ScasResult {
        if deeper_ok {
            return ScasResult::Success;
        }
        if self.aliased {
            return ScasResult::Abort;
        }
        if self.no_commit {
            // A deeper stage failed before any commit ran (target rejected,
            // inner source empty): permanently abort — if this stage's
            // captured word still holds its old value. It was captured
            // before the deeper verdict was observed and is re-read after,
            // so then it held throughout, and the verdict linearizes at
            // the deeper observation. If the word moved, the verdict may
            // describe a state that never existed together with this
            // capture: redo this stage instead.
            let e = &self.entries[idx];
            // Safety: the ENTRY hazard promoted in `capture` keeps the
            // word's allocation alive until `finish`.
            if unsafe { (*e.ptr).read(&self.g) } != e.old {
                self.dead = None;
                return ScasResult::Fail;
            }
            return ScasResult::Abort;
        }
        match self.retry_at {
            // Our captured CAS failed: redo this stage's init phase.
            Some(k) if k == idx => {
                // Budgeted attempt (batched front-end): each commit failure
                // spends one unit; exhaustion converts the retry into a
                // starvation abort that the caller routes to the group
                // commit. `retry_at` stays set so the outer stages observe
                // a post-commit abort, not a fresh-attempt one.
                if let Some(b) = self.fail_budget.as_mut() {
                    if *b == 0 {
                        self.starved = true;
                        return ScasResult::Abort;
                    }
                    *b -= 1;
                }
                self.retry_at = None;
                ScasResult::Fail
            }
            // An outer stage's entry must retry (or the deeper stages hit a
            // permanent rejection after a commit ran): abort this stage.
            _ => ScasResult::Abort,
        }
    }

    /// Release the engine-owned entry protections. The whole plan range is
    /// cleared (not just `count`): a commit failure rewinds `count` while
    /// deeper entries' slots may still hold their last promotion.
    pub(crate) fn finish(&mut self) {
        self.finished = true;
        for i in 0..self.plan {
            self.g.clear(slot::ENTRY0 + i);
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Every entry point calls `finish` on the normal return path, so
        // reaching here without it means the composition is unwinding —
        // most likely out of a user element's panicking `Clone`, or an
        // injected abandonment (`lfc_runtime::fault`). Leaving ENTRY slots
        // published would silently pin their allocations forever.
        if self.finished {
            return;
        }
        if lfc_runtime::fault::thread_is_abandoning() {
            // A corpse's ENTRY protections must persist: helpers completing
            // its announced commit validate against the initiator's hazards
            // (Lemma 6). The whole bank is cleared when the corpse is
            // adopted (`lfc_hazard`'s tid finalizer).
            return;
        }
        for i in 0..self.plan {
            self.g.clear(slot::ENTRY0 + i);
        }
    }
}

/// The remove-side stage context: captures entry `idx`, then runs the rest
/// of the chain (deeper stages and the commit) via `cont`.
pub(crate) struct StageRemoveCtx<'a, F> {
    pub(crate) eng: &'a mut Engine,
    pub(crate) idx: usize,
    pub(crate) cont: F,
}

impl<T, F> RemoveCtx<T> for StageRemoveCtx<'_, F>
where
    F: FnMut(&mut Engine, &T) -> bool,
{
    fn scas(&mut self, lp: LinPoint<'_>, elem: &T) -> ScasResult {
        if !self.eng.capture(self.idx, &lp) {
            return ScasResult::Abort;
        }
        let deeper_ok = (self.cont)(self.eng, elem);
        self.eng.resolve(self.idx, deeper_ok)
    }
}

/// The insert-side stage context.
struct StageInsertCtx<'a, F> {
    eng: &'a mut Engine,
    idx: usize,
    cont: F,
}

impl<F> InsertCtx for StageInsertCtx<'_, F>
where
    F: FnMut(&mut Engine) -> bool,
{
    fn scas(&mut self, lp: LinPoint<'_>) -> ScasResult {
        if !self.eng.capture(self.idx, &lp) {
            return ScasResult::Abort;
        }
        let deeper_ok = (self.cont)(self.eng);
        self.eng.resolve(self.idx, deeper_ok)
    }
}

fn note_insert_outcome(eng: &mut Engine, idx: usize, r: InsertOutcome) -> bool {
    match r {
        InsertOutcome::Inserted => true,
        InsertOutcome::Rejected => {
            // A rejection with no commit run is a *permanent* rejection
            // (bounded target, duplicate key) at the deepest such stage;
            // anything else is retry propagation already tracked by the
            // engine flags.
            if eng.no_commit && !eng.aliased && eng.dead.is_none() {
                eng.dead = Some(Dead::Rejected(idx));
            }
            false
        }
    }
}

/// Drive an unkeyed insert as stage `idx`.
pub(crate) fn run_insert<T, D, F>(eng: &mut Engine, idx: usize, dst: &D, elem: T, cont: F) -> bool
where
    D: MoveTarget<T> + ?Sized,
    F: FnMut(&mut Engine) -> bool,
{
    let r = dst.insert_with(elem, &mut StageInsertCtx { eng, idx, cont });
    note_insert_outcome(eng, idx, r)
}

/// Drive a keyed insert as stage `idx`.
pub(crate) fn run_insert_keyed<K, T, D, F>(
    eng: &mut Engine,
    idx: usize,
    dst: &D,
    key: K,
    elem: T,
    cont: F,
) -> bool
where
    D: KeyedMoveTarget<K, T> + ?Sized,
    F: FnMut(&mut Engine) -> bool,
{
    let r = dst.insert_key_with(key, elem, &mut StageInsertCtx { eng, idx, cont });
    note_insert_outcome(eng, idx, r)
}

/// Drive an *inner* remove as stage `idx` (the outermost remove is driven
/// directly by the composition entry points, which need its
/// [`RemoveOutcome`] for the verdict).
pub(crate) fn run_remove<T, S, F>(eng: &mut Engine, idx: usize, src: &S, cont: F) -> bool
where
    S: MoveSource<T> + ?Sized,
    F: FnMut(&mut Engine, &T) -> bool,
{
    match src.remove_with(&mut StageRemoveCtx { eng, idx, cont }) {
        RemoveOutcome::Removed(_) => true,
        RemoveOutcome::Empty => {
            if eng.dead.is_none() {
                eng.dead = Some(Dead::Empty(idx));
            }
            false
        }
        RemoveOutcome::Aborted => false,
    }
}

/// Map the outermost remove's outcome to a [`MoveOutcome`].
pub(crate) fn move_verdict<T>(eng: &Engine, outcome: RemoveOutcome<T>) -> MoveOutcome {
    match outcome {
        RemoveOutcome::Removed(_) => MoveOutcome::Moved,
        RemoveOutcome::Empty => MoveOutcome::SourceEmpty,
        RemoveOutcome::Aborted => {
            if eng.aliased {
                MoveOutcome::WouldAlias
            } else {
                MoveOutcome::TargetRejected
            }
        }
    }
}

/// Shared epilogue of every composition entry point: release protections,
/// then surface either the allocation failure (fallible engines) or the
/// mapped verdict.
fn conclude<T>(eng: &mut Engine, outcome: RemoveOutcome<T>) -> Result<MoveOutcome, AllocError> {
    eng.finish();
    if eng.oom() {
        return Err(AllocError);
    }
    Ok(move_verdict(eng, outcome))
}

/// `move_one` over the engine: remove at stage 0, insert at stage 1.
pub(crate) fn move_one_impl<T, S, D>(
    src: &S,
    dst: &D,
    fallible: bool,
) -> Result<MoveOutcome, AllocError>
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    let mut eng = if fallible {
        Engine::new_fallible(2)
    } else {
        Engine::new(2)
    };
    let outcome = src.remove_with(&mut StageRemoveCtx {
        eng: &mut eng,
        idx: 0,
        cont: |eng: &mut Engine, elem: &T| run_insert(eng, 1, dst, elem.clone(), Engine::commit),
    });
    conclude(&mut eng, outcome)
}

/// `move_keyed` over the engine.
pub(crate) fn move_keyed_impl<K, T, S, D>(
    src: &S,
    key: &K,
    dst: &D,
    fallible: bool,
) -> Result<MoveOutcome, AllocError>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
{
    let mut eng = if fallible {
        Engine::new_fallible(2)
    } else {
        Engine::new(2)
    };
    let outcome = src.remove_key_with(
        key,
        &mut StageRemoveCtx {
            eng: &mut eng,
            idx: 0,
            cont: |eng: &mut Engine, elem: &T| {
                run_insert_keyed(eng, 1, dst, key.clone(), elem.clone(), Engine::commit)
            },
        },
    );
    conclude(&mut eng, outcome)
}

/// Fan `elem` into every target from stage `idx` on, committing innermost.
pub(crate) fn fan_out<T, D>(eng: &mut Engine, idx: usize, dsts: &[&D], elem: &T) -> bool
where
    T: Clone,
    D: MoveTarget<T> + ?Sized,
{
    match dsts.split_first() {
        None => eng.commit(),
        Some((first, rest)) => {
            run_insert(eng, idx, *first, elem.clone(), move |eng: &mut Engine| {
                fan_out(eng, idx + 1, rest, elem)
            })
        }
    }
}

/// `move_to_all` over the engine.
pub(crate) fn move_to_all_impl<T, S, D>(
    src: &S,
    dsts: &[&D],
    fallible: bool,
) -> Result<MoveOutcome, AllocError>
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    assert!(
        !dsts.is_empty() && dsts.len() <= MAX_TARGETS,
        "move_to_all supports 1..={MAX_TARGETS} targets"
    );
    let mut eng = if fallible {
        Engine::new_fallible(1 + dsts.len())
    } else {
        Engine::new(1 + dsts.len())
    };
    let outcome = src.remove_with(&mut StageRemoveCtx {
        eng: &mut eng,
        idx: 0,
        cont: |eng: &mut Engine, elem: &T| fan_out(eng, 1, dsts, elem),
    });
    conclude(&mut eng, outcome)
}

pub(crate) fn fan_out_keyed<K, T, D>(
    eng: &mut Engine,
    idx: usize,
    dsts: &[&D],
    key: &K,
    elem: &T,
) -> bool
where
    K: Clone,
    T: Clone,
    D: KeyedMoveTarget<K, T> + ?Sized,
{
    match dsts.split_first() {
        None => eng.commit(),
        Some((first, rest)) => run_insert_keyed(
            eng,
            idx,
            *first,
            key.clone(),
            elem.clone(),
            move |eng: &mut Engine| fan_out_keyed(eng, idx + 1, rest, key, elem),
        ),
    }
}

/// Atomically remove the element stored under `key` in `src` and insert a
/// clone of it — under the same key — into **each** target in `dsts`: the
/// keyed fan-out the old per-shape state machines could not express.
///
/// Returns [`MoveOutcome::SourceEmpty`] when the key is absent,
/// [`MoveOutcome::TargetRejected`] when any target already holds the key
/// (all-or-nothing: the other targets are left untouched).
///
/// # Panics
///
/// Panics if `dsts` is empty or holds more than [`MAX_TARGETS`] targets.
pub fn move_keyed_to_all<K, T, S, D>(src: &S, key: &K, dsts: &[&D]) -> MoveOutcome
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
{
    match move_keyed_to_all_impl(src, key, dsts, false) {
        Ok(o) => o,
        Err(_) => unreachable!("infallible engine cannot report OOM"),
    }
}

/// Fallible [`move_keyed_to_all`]: descriptor allocation failure surfaces
/// as `Err` with nothing changed anywhere.
pub fn try_move_keyed_to_all<K, T, S, D>(
    src: &S,
    key: &K,
    dsts: &[&D],
) -> Result<MoveOutcome, AllocError>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
{
    move_keyed_to_all_impl(src, key, dsts, true)
}

fn move_keyed_to_all_impl<K, T, S, D>(
    src: &S,
    key: &K,
    dsts: &[&D],
    fallible: bool,
) -> Result<MoveOutcome, AllocError>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
{
    assert!(
        !dsts.is_empty() && dsts.len() <= MAX_TARGETS,
        "move_keyed_to_all supports 1..={MAX_TARGETS} targets"
    );
    let mut eng = if fallible {
        Engine::new_fallible(1 + dsts.len())
    } else {
        Engine::new(1 + dsts.len())
    };
    let outcome = src.remove_key_with(
        key,
        &mut StageRemoveCtx {
            eng: &mut eng,
            idx: 0,
            cont: |eng: &mut Engine, elem: &T| fan_out_keyed(eng, 1, dsts, key, elem),
        },
    );
    conclude(&mut eng, outcome)
}

/// Atomically move the element stored under `key` in a *keyed* source into
/// an *unkeyed* target (e.g. a hash map → a queue): the key is dropped and
/// the element crosses container shapes in one linearization point.
/// Equivalent to
/// `Composition::moving_key_from(src, key).into_target(dst).run()`.
pub fn move_keyed_to_unkeyed<K, T, S, D>(src: &S, key: &K, dst: &D) -> MoveOutcome
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    Composition::moving_key_from(src, key)
        .into_target(dst)
        .run()
}

/// Fallible [`move_keyed_to_unkeyed`].
pub fn try_move_keyed_to_unkeyed<K, T, S, D>(
    src: &S,
    key: &K,
    dst: &D,
) -> Result<MoveOutcome, AllocError>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    Composition::moving_key_from(src, key)
        .into_target(dst)
        .try_run()
}

/// Outcome of a composed [`swap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapOutcome {
    /// One element of each object changed places atomically: no concurrent
    /// observer could see a state with zero or two of either element.
    Swapped,
    /// The first object had nothing to remove.
    FirstEmpty,
    /// The second object had nothing to remove.
    SecondEmpty,
    /// One of the inserts was permanently rejected (bounded target full,
    /// duplicate key); nothing changed anywhere.
    Rejected,
    /// Two of the four linearization points landed on the same memory word
    /// — e.g. a LIFO stack, whose push and pop both linearize on `top`, or
    /// `swap(x, x)`. A k-word CAS cannot express that; use containers whose
    /// insert and remove linearize on distinct words (queues do).
    WouldAlias,
}

/// Atomically exchange one element between `a` and `b`: remove `x` from
/// `a`, remove `y` from `b`, insert `y` into `a` and `x` into `b`, all at a
/// single linearization point — a four-entry composition no pair of moves
/// can express (two sequential moves expose a state where both elements
/// sit in one object).
///
/// Works for containers whose insert and remove linearize on distinct
/// words (FIFO queues, the one-slot container when distinct); LIFO stacks
/// linearize push and pop on the same `top` word, which a k-word CAS
/// cannot express — those report [`SwapOutcome::WouldAlias`].
pub fn swap<T, A, B>(a: &A, b: &B) -> SwapOutcome
where
    T: Clone,
    A: MoveSource<T> + MoveTarget<T> + ?Sized,
    B: MoveSource<T> + MoveTarget<T> + ?Sized,
{
    match swap_impl(a, b, false) {
        Ok(o) => o,
        Err(_) => unreachable!("infallible engine cannot report OOM"),
    }
}

/// Fallible [`swap`]: descriptor allocation failure surfaces as `Err`
/// with both objects untouched.
pub fn try_swap<T, A, B>(a: &A, b: &B) -> Result<SwapOutcome, AllocError>
where
    T: Clone,
    A: MoveSource<T> + MoveTarget<T> + ?Sized,
    B: MoveSource<T> + MoveTarget<T> + ?Sized,
{
    swap_impl(a, b, true)
}

fn swap_impl<T, A, B>(a: &A, b: &B, fallible: bool) -> Result<SwapOutcome, AllocError>
where
    T: Clone,
    A: MoveSource<T> + MoveTarget<T> + ?Sized,
    B: MoveSource<T> + MoveTarget<T> + ?Sized,
{
    let mut eng = if fallible {
        Engine::new_fallible(4)
    } else {
        Engine::new(4)
    };
    let outcome = a.remove_with(&mut StageRemoveCtx {
        eng: &mut eng,
        idx: 0,
        cont: |eng: &mut Engine, x: &T| {
            run_remove(eng, 1, b, |eng: &mut Engine, y: &T| {
                run_insert(eng, 2, a, y.clone(), |eng: &mut Engine| {
                    run_insert(eng, 3, b, x.clone(), Engine::commit)
                })
            })
        },
    });
    eng.finish();
    if eng.oom() {
        return Err(AllocError);
    }
    Ok(match outcome {
        RemoveOutcome::Removed(_) => SwapOutcome::Swapped,
        RemoveOutcome::Empty => SwapOutcome::FirstEmpty,
        RemoveOutcome::Aborted => {
            if eng.aliased {
                SwapOutcome::WouldAlias
            } else if eng.dead == Some(Dead::Empty(1)) {
                SwapOutcome::SecondEmpty
            } else {
                SwapOutcome::Rejected
            }
        }
    })
}

mod sealed {
    /// Seals [`super::Stages`]: stage chains are built only through the
    /// [`super::Composition`] builder.
    pub trait Sealed {}
    impl Sealed for super::Commit {}
    impl<D: ?Sized, C> Sealed for super::InsertStage<'_, D, C> {}
    impl<K, D: ?Sized, C> Sealed for super::KeyedInsertStage<'_, K, D, C> {}
}

/// A compiled chain of insert stages (sealed; constructed by
/// [`Composition`]'s builder methods).
pub trait Stages<T>: sealed::Sealed {
    /// Number of insert stages in the chain.
    const LEN: usize;
    #[doc(hidden)]
    fn run_chain(&self, eng: &mut Engine, idx: usize, elem: &T) -> bool;
}

/// The terminal chain element: commits every captured entry.
pub struct Commit;

/// An unkeyed insert stage.
pub struct InsertStage<'a, D: ?Sized, C> {
    dst: &'a D,
    rest: C,
}

/// A keyed insert stage (inserts under its own key, which may differ from
/// the source's — an atomic *re-key* is a valid composition).
pub struct KeyedInsertStage<'a, K, D: ?Sized, C> {
    dst: &'a D,
    key: &'a K,
    rest: C,
}

impl<T> Stages<T> for Commit {
    const LEN: usize = 0;
    fn run_chain(&self, eng: &mut Engine, _idx: usize, _elem: &T) -> bool {
        eng.commit()
    }
}

impl<T, D, C> Stages<T> for InsertStage<'_, D, C>
where
    T: Clone,
    D: MoveTarget<T> + ?Sized,
    C: Stages<T>,
{
    const LEN: usize = 1 + C::LEN;
    fn run_chain(&self, eng: &mut Engine, idx: usize, elem: &T) -> bool {
        run_insert(eng, idx, self.dst, elem.clone(), |eng: &mut Engine| {
            self.rest.run_chain(eng, idx + 1, elem)
        })
    }
}

impl<K, T, D, C> Stages<T> for KeyedInsertStage<'_, K, D, C>
where
    K: Clone,
    T: Clone,
    D: KeyedMoveTarget<K, T> + ?Sized,
    C: Stages<T>,
{
    const LEN: usize = 1 + C::LEN;
    fn run_chain(&self, eng: &mut Engine, idx: usize, elem: &T) -> bool {
        run_insert_keyed(
            eng,
            idx,
            self.dst,
            self.key.clone(),
            elem.clone(),
            |eng: &mut Engine| self.rest.run_chain(eng, idx + 1, elem),
        )
    }
}

/// The unkeyed source of a [`Composition`].
pub struct Source<'a, T, S: ?Sized> {
    src: &'a S,
    _elem: std::marker::PhantomData<fn() -> T>,
}

/// The keyed source of a [`Composition`].
pub struct KeyedSource<'a, K, T, S: ?Sized> {
    src: &'a S,
    key: &'a K,
    _elem: std::marker::PhantomData<fn() -> T>,
}

/// A builder for composed operations over the unified engine.
///
/// A composition removes one element from its source and inserts clones of
/// it into every accumulated target — any mix of keyed and unkeyed stages,
/// up to [`MAX_ENTRIES`] linearization points in total — committing all of
/// them at a single linearization point.
///
/// ```
/// use lfc_core::compose::Composition;
/// use lfc_core::MoveOutcome;
/// use lfc_structures::{LfHashMap, MsQueue, TreiberStack};
///
/// let sessions: LfHashMap<u64, String> = LfHashMap::new();
/// let work: MsQueue<String> = MsQueue::new();
/// let audit: TreiberStack<String> = TreiberStack::new();
/// sessions.insert(7, "session-7".into());
///
/// // Atomically take key 7 out of the map and deliver the payload to BOTH
/// // unkeyed containers: no observer can ever see it in the map and a
/// // queue at once, or in one queue but not the other.
/// let outcome = Composition::moving_key_from(&sessions, &7)
///     .into_target(&work)
///     .into_target(&audit)
///     .run();
/// assert_eq!(outcome, MoveOutcome::Moved);
/// assert!(!sessions.contains(&7));
/// assert_eq!(work.dequeue().as_deref(), Some("session-7"));
/// assert_eq!(audit.pop().as_deref(), Some("session-7"));
/// ```
pub struct Composition<Src, C> {
    source: Src,
    chain: C,
}

impl<'a, T, S: ?Sized> Composition<Source<'a, T, S>, Commit> {
    /// Start a composition that removes its element from the unkeyed `src`.
    pub fn moving_from(src: &'a S) -> Self {
        Composition {
            source: Source {
                src,
                _elem: std::marker::PhantomData,
            },
            chain: Commit,
        }
    }
}

impl<'a, K, T, S: ?Sized> Composition<KeyedSource<'a, K, T, S>, Commit> {
    /// Start a composition that removes the element under `key` from the
    /// keyed `src`.
    pub fn moving_key_from(src: &'a S, key: &'a K) -> Self {
        Composition {
            source: KeyedSource {
                src,
                key,
                _elem: std::marker::PhantomData,
            },
            chain: Commit,
        }
    }
}

impl<Src, C> Composition<Src, C> {
    /// Add an unkeyed insert target.
    pub fn into_target<D: ?Sized>(self, dst: &D) -> Composition<Src, InsertStage<'_, D, C>> {
        Composition {
            source: self.source,
            chain: InsertStage {
                dst,
                rest: self.chain,
            },
        }
    }

    /// Add a keyed insert target, inserting under `key`.
    pub fn into_keyed_target<'b, K, D: ?Sized>(
        self,
        dst: &'b D,
        key: &'b K,
    ) -> Composition<Src, KeyedInsertStage<'b, K, D, C>> {
        Composition {
            source: self.source,
            chain: KeyedInsertStage {
                dst,
                key,
                rest: self.chain,
            },
        }
    }
}

impl<T, S, C> Composition<Source<'_, T, S>, C>
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    C: Stages<T>,
{
    /// Execute the composition. Lock-free and linearizable when every
    /// object involved is a lock-free move-ready object.
    pub fn run(&self) -> MoveOutcome {
        match self.run_impl(false) {
            Ok(o) => o,
            Err(_) => unreachable!("infallible engine cannot report OOM"),
        }
    }

    /// Fallible [`run`](Self::run): descriptor allocation failure surfaces
    /// as `Err` with nothing changed anywhere.
    pub fn try_run(&self) -> Result<MoveOutcome, AllocError> {
        self.run_impl(true)
    }

    fn run_impl(&self, fallible: bool) -> Result<MoveOutcome, AllocError> {
        assert!(
            (1..=MAX_TARGETS).contains(&C::LEN),
            "a composition takes 1..={MAX_TARGETS} insert stages"
        );
        let mut eng = if fallible {
            Engine::new_fallible(1 + C::LEN)
        } else {
            Engine::new(1 + C::LEN)
        };
        let outcome = self.source.src.remove_with(&mut StageRemoveCtx {
            eng: &mut eng,
            idx: 0,
            cont: |eng: &mut Engine, elem: &T| self.chain.run_chain(eng, 1, elem),
        });
        conclude(&mut eng, outcome)
    }
}

impl<K, T, S, C> Composition<KeyedSource<'_, K, T, S>, C>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    C: Stages<T>,
{
    /// Execute the composition (keyed source).
    pub fn run(&self) -> MoveOutcome {
        match self.run_impl(false) {
            Ok(o) => o,
            Err(_) => unreachable!("infallible engine cannot report OOM"),
        }
    }

    /// Fallible [`run`](Self::run): descriptor allocation failure surfaces
    /// as `Err` with nothing changed anywhere.
    pub fn try_run(&self) -> Result<MoveOutcome, AllocError> {
        self.run_impl(true)
    }

    fn run_impl(&self, fallible: bool) -> Result<MoveOutcome, AllocError> {
        assert!(
            (1..=MAX_TARGETS).contains(&C::LEN),
            "a composition takes 1..={MAX_TARGETS} insert stages"
        );
        let mut eng = if fallible {
            Engine::new_fallible(1 + C::LEN)
        } else {
            Engine::new(1 + C::LEN)
        };
        let outcome = self.source.src.remove_key_with(
            self.source.key,
            &mut StageRemoveCtx {
                eng: &mut eng,
                idx: 0,
                cont: |eng: &mut Engine, elem: &T| self.chain.run_chain(eng, 1, elem),
            },
        );
        conclude(&mut eng, outcome)
    }
}

//! The unified k-entry commit: one entry point for every composed
//! operation, with DCAS as the K=2 specialization of CASN.
//!
//! The composition engine in `lfc-core` captures up to
//! [`MAX_ENTRIES`](crate::kcas::MAX_ENTRIES) linearization-point CAS
//! triples (as [`CasnEntry`] values) and commits them all through
//! [`commit_entries`]. Three regimes, fastest first:
//!
//! 1. **Solo** ([`lfc_runtime::solo`]): the calling thread is the only
//!    registered thread and the registration handshake keeps it that way,
//!    so no descriptor is built at all — the k CASes run back to back
//!    ([`crate::kcas::solo_commit`], shared with `DescHandle`'s own fast
//!    path), rolling back the prefix on the first mismatch.
//! 2. **K = 2**: the paper's own DCAS (Algorithm 4) via a pooled
//!    [`DescHandle`] — fewer CASes than the general protocol and no RDCSS
//!    descriptors, which is exactly why the paper prefers it for pairs.
//! 3. **K > 2**: the Harris–Fraser–Pratt CASN via a pooled
//!    [`CasnHandle`](crate::kcas::CasnHandle).
//!
//! All three share the per-thread descriptor pools (`crate::pool`), so the
//! steady-state hot path performs **zero** `lfc-alloc` block allocations.

use crate::dcas::{DcasResult, DescHandle};
use crate::kcas::{solo_commit, CasnEntry, CasnHandle, CasnResult, MAX_ENTRIES};
use lfc_hazard::Guard;
use lfc_runtime::solo;

/// Atomically commit `entries` (between 2 and [`MAX_ENTRIES`] CAS triples):
/// either every word is swung from its `old` to its `new`, or — reported as
/// [`CasnResult::FailedAt`] with the first failing index — no word is left
/// changed.
///
/// # Safety
///
/// Every entry's `ptr` must point to a live `DAtomic` whose allocation the
/// caller keeps alive for the duration of the call (by borrow or hazard;
/// `hp` is what helpers adopt), and the entry words must be pairwise
/// distinct — a k-word CAS cannot express two CASes on one word. The
/// `Composition` builder in `lfc-core` is the safe wrapper: it captures
/// entries from live borrows and rejects aliased words at capture time
/// (debug builds re-check distinctness here).
///
/// Panics if a descriptor allocation fails; [`try_commit_entries`] is the
/// fallible form.
#[inline]
pub unsafe fn commit_entries(entries: &[CasnEntry], g: &Guard) -> CasnResult {
    // Safety: forwarded unchanged; the caller upholds the contract above.
    unsafe { try_commit_entries(entries, g) }
        .unwrap_or_else(|_| panic!("lfc-alloc: allocation of a commit descriptor failed"))
}

/// Fallible [`commit_entries`]: descriptor and RDCSS allocation failures
/// (genuine exhaustion, or injection at the `"dcas.desc"`, `"dcas.casn"`
/// and `"dcas.rdcss"` sites) surface as `Err` instead of panicking, with
/// no word left changed. The solo regime allocates nothing and cannot
/// fail.
///
/// # Safety
///
/// As [`commit_entries`].
#[inline]
pub unsafe fn try_commit_entries(
    entries: &[CasnEntry],
    g: &Guard,
) -> Result<CasnResult, lfc_alloc::AllocError> {
    assert!(
        (2..=MAX_ENTRIES).contains(&entries.len()),
        "commit_entries supports 2..={MAX_ENTRIES} entries"
    );
    debug_assert!(
        entries
            .iter()
            .enumerate()
            .all(|(i, e)| entries[..i].iter().all(|p| !std::ptr::eq(p.ptr, e.ptr))),
        "entry words must be pairwise distinct (engine alias detection)"
    );

    // Regime 1: solo — no descriptor, no publication, no reclamation work.
    if let Some(_solo) = solo::try_enter() {
        return Ok(solo_commit(entries));
    }

    // Regime 2: K=2 — the paper's DCAS is the two-entry specialization.
    if let [first, second] = entries {
        let mut h = DescHandle::try_new()?;
        h.set_first_from(first);
        h.set_second_from(second);
        return Ok(match h.commit_engine(g) {
            DcasResult::Success => CasnResult::Success,
            DcasResult::FirstFailed => CasnResult::FailedAt(0),
            DcasResult::SecondFailed => CasnResult::FailedAt(1),
        });
    }

    // Regime 3: the general CASN.
    let mut h = CasnHandle::try_new()?;
    for (i, e) in entries.iter().enumerate() {
        h.set_entry_from(i, e);
    }
    h.try_commit(g)
}

//! Shared reclamation/robustness diagnostics block for captured JSON.
//!
//! Every capture the CI tracks (`reproduce bench`, `reproduce throughput`,
//! `reproduce chaos`) embeds the same post-run snapshot of the hazard
//! domain and the fault subsystem, under the same `"reclamation"` key, so
//! regressions in garbage accumulation — or an armed fault site leaking
//! into a perf capture — show up in whichever artifact is being diffed.

use crate::json::Json;

/// A post-run snapshot of the hazard domain and fault counters as one JSON
/// object; the event counts come from one `lfc_runtime::metrics::Snapshot`.
/// On an unfaulted run the `ejections`, `zombies`, `abandoned_threads`,
/// and every `fired` are zero; nonzero values in a perf capture flag an
/// armed site leaking in.
pub fn reclamation_json() -> Json {
    let m = lfc_runtime::metrics::snapshot();
    Json::Obj(vec![
        ("retired_count".into(), Json::int(m.reclaim.pending())),
        (
            "retired_bytes".into(),
            Json::int(lfc_hazard::retired_bytes() as u64),
        ),
        ("diverted".into(), Json::int(m.reclaim.diverted)),
        ("scans".into(), Json::int(m.reclaim.scans)),
        ("ejections".into(), Json::int(m.reclaim.ejections)),
        ("zombies".into(), Json::int(m.reclaim.zombies)),
        // Fault/robustness diagnostics (PR 8): helper-side protocol
        // completions (organic read-helping + corpse adoptions) and the
        // per-site fault-injection counters.
        (
            "helped_completions".into(),
            Json::int(lfc_dcas::helped_completions() as u64),
        ),
        (
            "abandoned_threads".into(),
            Json::int(lfc_runtime::fault::abandoned_total() as u64),
        ),
        (
            "fault_counters".into(),
            Json::Arr(
                lfc_runtime::fault::counters()
                    .into_iter()
                    .map(|(site, checks, fired)| {
                        Json::Obj(vec![
                            ("site".into(), Json::str(site)),
                            ("checks".into(), Json::int(checks)),
                            ("fired".into(), Json::int(fired)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

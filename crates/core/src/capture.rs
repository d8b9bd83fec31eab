//! One capture path for a solve: the recorders it writes into, the
//! artifacts assembled from them afterwards, and the one directory
//! layout those artifacts land in.
//!
//! A [`Capture`] is handed to the engine as its `rec` and `tree`
//! arguments (see [`crate::engine::allocate_traced`]). After the solve,
//! [`Capture::finish`] turns what was recorded into a [`Captured`]
//! bundle, and [`Captured::write`] lays it out under a capture
//! directory:
//!
//! ```text
//! <stem>.casa-session   replayable session (always)
//! <stem>.report.json    the canonical response bytes (always)
//! <stem>.tree.json      B&B search tree (tree-searching allocators)
//! <stem>.explain.json   decision provenance (when the job asks for it)
//! ```
//!
//! The sweep and casa-server both fill capture directories through this
//! module, so a directory has the same layout whoever wrote it. Capture
//! is an output channel: the recorders never steer the search, and the
//! artifacts are assembled strictly after the decision.

use crate::energy_model::EnergyModel;
use crate::engine::AllocOutcome;
use crate::explain::{explain_allocation, explain_json};
use crate::server::SolveJob;
use crate::session::{Session, SessionRecorder};
use casa_ilp::tree::{tree_log_json, TreeRecorder, DEFAULT_TREE_CAPACITY};
use casa_obs::Obs;
use std::path::Path;

/// The two recorders one solve writes into. The default records
/// nothing and costs nothing; clones share the same logs.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// The solver's decision log, the heart of the session.
    pub log: SessionRecorder,
    /// The B&B search tree, ring-capped at [`DEFAULT_TREE_CAPACITY`]
    /// events.
    pub tree: TreeRecorder,
}

/// The artifacts of one captured solve, ready to write.
#[derive(Debug, Clone, PartialEq)]
pub struct Captured {
    /// The replayable session; its `report` is the response bytes.
    pub session: Session,
    /// The `casa_tree` document, for tree-searching allocators only.
    pub tree: Option<String>,
    /// The `casa_explain` document, when the job asked for one.
    pub explain: Option<String>,
}

impl Capture {
    /// A capture with both recorders on.
    pub fn on() -> Capture {
        Capture {
            log: SessionRecorder::enabled(),
            tree: TreeRecorder::with_cap(DEFAULT_TREE_CAPACITY),
        }
    }

    /// Assemble the artifacts of the finished solve `out` of `job`,
    /// draining both recorders. `meta` tags the session; the explain
    /// document, when `job.explain` is set, is derived under an
    /// `explain` span on `obs`. `None` when this capture is off.
    pub fn finish(
        &self,
        job: &SolveJob,
        out: &AllocOutcome,
        model: &EnergyModel<'_>,
        meta: Vec<(String, String)>,
        obs: &Obs,
    ) -> Option<Captured> {
        let log = self.log.take()?;
        let tree = self
            .tree
            .take()
            .filter(|_| job.allocator.searches_tree())
            .map(|log| tree_log_json(&log));
        let explain = job.explain.then(|| {
            let _span = obs.span("explain");
            explain_json(&explain_allocation(
                model,
                job.capacity,
                job.allocator,
                &out.allocation,
            ))
        });
        Some(Captured {
            session: Session::capture(job, out, model, log, meta),
            tree,
            explain,
        })
    }
}

impl Captured {
    /// Write every artifact under `dir` (created if missing) as
    /// `<stem>.<kind>` siblings, where the stem is `stem` with anything
    /// outside `[A-Za-z0-9._-]` replaced by `_`.
    ///
    /// # Errors
    ///
    /// The first filesystem error; files written before it stay.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        let stem: String = stem
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        std::fs::create_dir_all(dir)?;
        let path = |kind: &str| dir.join(format!("{stem}.{kind}"));
        std::fs::write(path("casa-session"), self.session.to_binary())?;
        std::fs::write(path("report.json"), &self.session.report)?;
        if let Some(tree) = &self.tree {
            std::fs::write(path("tree.json"), tree)?;
        }
        if let Some(explain) = &self.explain {
            std::fs::write(path("explain.json"), explain)?;
        }
        Ok(())
    }
}

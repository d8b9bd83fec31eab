//! Record/replay of allocation sessions.
//!
//! A **session** captures everything one solve consumed and decided:
//! the canonical request (conflict graph, energy constants, capacity,
//! allocator, budget), the solver's decision log (branch variable
//! order, every incumbent with its objective, every bound improvement,
//! the stop reason), and the final answer (layout, energy, status,
//! gap, and the rendered report). Together these make a solve
//! reproducible offline: [`Session::replay`] re-executes the solve
//! *from the log* — adopting the recorded decisions instead of
//! re-searching — and asserts layout, energy, gap, and report
//! byte-equivalence, while [`Session::divergence`] re-solves from
//! scratch and pinpoints the first decision where the fresh search
//! departs from the recorded one.
//!
//! # On-disk format
//!
//! One compact binary framing, written by [`Session::save`] (by
//! convention to a `.casa-session` file) and read by
//! [`Session::load`]: an 8-byte magic `CASASESS`, a little-endian
//! `u32` schema number, then tagged sections (`u16` tag, `u64` payload
//! length, payload). `f64` values travel as their bit patterns, so the
//! round-trip is bit-exact. Readers **skip unknown tags**, so newer
//! writers can add sections without breaking older readers; schema
//! numbers above their own and truncated input are errors, exactly
//! like the `bench::history` reader.
//!
//! # Replay-equivalence guarantee
//!
//! For the deterministic allocators (`casa-bb`, the ILP variants under
//! pure node budgets, and the heuristics) replay re-derives the branch
//! order from the request, checks every recorded incumbent for
//! feasibility and monotone improvement, recomputes the gap from the
//! recorded objective/bound bit patterns, and regenerates the response
//! JSON — all of which must match the recording byte for byte.
//! Fallback outcomes record no solver log; replay verifies the energy
//! and report only. See `DESIGN.md` §15 for the schema reference.

use crate::allocation::Allocation;
use crate::casa_bb::SavingsModel;
use crate::energy_model::EnergyModel;
use crate::engine::{allocate_traced, AllocOutcome, AllocStatus, BudgetKind, TreeRecorder};
use crate::flow::AllocatorKind;
use crate::server::{parse_request, response_json, ParsedRequest, SolveJob};
use casa_obs::{jnum, Obs};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Current session schema number. Readers reject anything newer.
pub const SESSION_SCHEMA: u32 = 1;

/// Magic bytes opening every binary session file.
pub const SESSION_MAGIC: &[u8; 8] = b"CASASESS";

// ---------------------------------------------------------------------------
// Decision log + recorder
// ---------------------------------------------------------------------------

/// One incumbent adoption: the node that found it, the solver-internal
/// objective (bit pattern, for exact round-trips), and the chosen set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Incumbent {
    /// Node count at adoption (0 = the initial greedy/warm incumbent).
    pub node: u64,
    /// Bit pattern of the solver's objective for this incumbent
    /// (savings for the specialized B&B, minimized energy for the
    /// ILP).
    pub objective_bits: u64,
    /// The scratchpad set adopted, one flag per object.
    pub on_spm: Vec<bool>,
}

/// One strict improvement of the global optimistic bound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundUpdate {
    /// Node count when the bound improved.
    pub node: u64,
    /// Bit pattern of the new bound (solver orientation).
    pub value_bits: u64,
}

/// Everything a recorded search decided, in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionLog {
    /// Branch variable order: candidate indices for the specialized
    /// B&B (its full static order), raw model variable indices for the
    /// ILP (one entry per branching decision).
    pub order: Vec<u32>,
    /// Every incumbent adoption, oldest first.
    pub incumbents: Vec<Incumbent>,
    /// Every strict bound improvement, oldest first.
    pub bounds: Vec<BoundUpdate>,
    /// Which budget dimension stopped the search (`None` = closed).
    pub stop: Option<String>,
    /// Total nodes the search visited.
    pub nodes: u64,
}

/// Recording hook threaded through the allocation engine, mirroring
/// the `Obs` pattern: [`SessionRecorder::disabled`] is a no-op with
/// near-zero cost, [`SessionRecorder::enabled`] accumulates a
/// [`DecisionLog`] retrievable with [`SessionRecorder::take`].
///
/// Clones share the same log, so the engine can hand copies to the
/// solver layers while the caller keeps one to harvest.
#[derive(Debug, Clone, Default)]
pub struct SessionRecorder(Option<Arc<Mutex<DecisionLog>>>);

impl SessionRecorder {
    /// A recorder that accumulates decisions.
    pub fn enabled() -> Self {
        SessionRecorder(Some(Arc::new(Mutex::new(DecisionLog::default()))))
    }

    /// The no-op recorder.
    pub fn disabled() -> Self {
        SessionRecorder(None)
    }

    /// Whether decisions are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn with<F: FnOnce(&mut DecisionLog)>(&self, f: F) {
        if let Some(log) = &self.0 {
            if let Ok(mut log) = log.lock() {
                f(&mut log);
            }
        }
    }

    /// Record the branch variable order (appends, so the ILP can feed
    /// one decision at a time while the B&B dumps its static order).
    pub fn record_order<I: IntoIterator<Item = u32>>(&self, order: I) {
        self.with(|l| l.order.extend(order));
    }

    /// Record an incumbent adoption.
    pub fn record_incumbent(&self, node: u64, objective: f64, on_spm: Vec<bool>) {
        self.with(|l| {
            l.incumbents.push(Incumbent {
                node,
                objective_bits: objective.to_bits(),
                on_spm,
            });
        });
    }

    /// Record a strict bound improvement.
    pub fn record_bound(&self, node: u64, value: f64) {
        self.with(|l| {
            l.bounds.push(BoundUpdate {
                node,
                value_bits: value.to_bits(),
            });
        });
    }

    /// Record the stop disposition and final node count.
    pub fn record_stop(&self, kind: Option<&str>, nodes: u64) {
        self.with(|l| {
            l.stop = kind.map(str::to_string);
            l.nodes = nodes;
        });
    }

    /// Harvest the accumulated log (leaves an empty one behind).
    /// `None` when the recorder is disabled.
    pub fn take(&self) -> Option<DecisionLog> {
        self.0
            .as_ref()
            .and_then(|log| log.lock().ok().map(|mut l| std::mem::take(&mut *l)))
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// One recorded solve: request, decision log, and final answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Session {
    /// Format schema number ([`SESSION_SCHEMA`] when written here).
    pub schema: u32,
    /// Free-form provenance tags (request ID, benchmark name, …).
    pub meta: Vec<(String, String)>,
    /// The canonical v1 request JSON ([`request_json`]) this solve
    /// answered — replay re-parses it to rebuild the problem.
    pub request: String,
    /// The solver's decision log.
    pub log: DecisionLog,
    /// Final layout, one flag per object.
    pub layout: Vec<bool>,
    /// Bit pattern of the final layout's total energy.
    pub energy_bits: u64,
    /// Status tag (`"optimal"` / `"feasible"` / `"fallback"`).
    pub status: String,
    /// Bit pattern of the claimed gap (NaN bits when no gap is
    /// claimed, i.e. fallback).
    pub gap_bits: u64,
    /// Which budget dimension stopped the solver, if any.
    pub stopped_by: Option<String>,
    /// Fallback reason, when `status` is `"fallback"`.
    pub reason: Option<String>,
    /// Solver nodes the answer cost.
    pub nodes: u64,
    /// The rendered deterministic response JSON.
    pub report: String,
}

/// Render the canonical v1 request JSON for a [`SolveJob`]: sorted
/// keys, graph in CSR edge order, shortest-round-trip numbers. The
/// result re-parses through [`parse_request`] to an identical job,
/// which is what lets a session replay rebuild its problem.
pub fn request_json(job: &SolveJob) -> String {
    let g = &job.graph;
    let edges = g
        .edges()
        .map(|((i, j), m)| format!("[{i},{j},{m}]"))
        .collect::<Vec<_>>()
        .join(",");
    let fetches = (0..g.len())
        .map(|i| g.fetches_of(i).to_string())
        .collect::<Vec<_>>()
        .join(",");
    let sizes = (0..g.len())
        .map(|i| g.size_of(i).to_string())
        .collect::<Vec<_>>()
        .join(",");
    let budget = match (job.budget_ms, job.budget_nodes) {
        (None, None) => String::new(),
        (ms, nodes) => {
            let mut inner = Vec::new();
            if let Some(ms) = ms {
                inner.push(format!("\"ms\":{ms}"));
            }
            if let Some(n) = nodes {
                inner.push(format!("\"nodes\":{n}"));
            }
            format!("\"budget\":{{{}}},", inner.join(","))
        }
    };
    let t = &job.table;
    format!(
        "{{\"allocator\":\"{}\",{budget}\"capacity\":{},\"graph\":{{\"edges\":[{edges}],\"fetches\":[{fetches}],\"sizes\":[{sizes}]}},\"table\":{{\"cache_hit\":{},\"cache_miss\":{},\"l2_access\":{},\"lc_access\":{},\"lc_controller\":{},\"mm_word\":{},\"spm_access\":{}}},\"v\":1}}",
        crate::server::allocator_tag(job.allocator),
        job.capacity,
        jnum(t.cache_hit),
        jnum(t.cache_miss),
        jnum(t.l2_access),
        jnum(t.lc_access),
        jnum(t.lc_controller),
        jnum(t.mm_word),
        jnum(t.spm_access),
    )
}

impl Session {
    /// Build a session from one finished solve.
    pub fn capture(
        job: &SolveJob,
        out: &AllocOutcome,
        model: &EnergyModel<'_>,
        log: DecisionLog,
        meta: Vec<(String, String)>,
    ) -> Session {
        let energy = model.total_energy(&out.allocation.on_spm);
        let reason = match &out.status {
            AllocStatus::Fallback { reason } => Some(reason.clone()),
            _ => None,
        };
        Session {
            schema: SESSION_SCHEMA,
            meta,
            request: request_json(job),
            log,
            layout: out.allocation.on_spm.clone(),
            energy_bits: energy.to_bits(),
            status: out.status.as_str().to_string(),
            gap_bits: out.status.gap().unwrap_or(f64::NAN).to_bits(),
            stopped_by: out.stopped_by.map(|k| k.as_str().to_string()),
            reason,
            nodes: out.allocation.solver_nodes,
            report: response_json(job, out, model),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

const T_REQUEST: u16 = 1;
const T_LAYOUT: u16 = 2;
const T_ENERGY: u16 = 3;
const T_STATUS: u16 = 4;
const T_GAP: u16 = 5;
const T_STOPPED: u16 = 6;
const T_REASON: u16 = 7;
const T_NODES: u16 = 8;
const T_REPORT: u16 = 9;
const T_ORDER: u16 = 10;
const T_LOG_NODES: u16 = 11;
const T_LOG_STOP: u16 = 12;
const T_INCUMBENT: u16 = 13;
const T_BOUND: u16 = 14;
const T_META: u16 = 15;

fn section(out: &mut Vec<u8>, tag: u16, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Bounded little-endian reader over a byte slice; every shortfall is
/// a truncation error.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SessionError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| SessionError::Format("truncated session file".to_string()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, SessionError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SessionError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SessionError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }
}

fn utf8(payload: &[u8]) -> Result<String, SessionError> {
    String::from_utf8(payload.to_vec())
        .map_err(|_| SessionError::Format("non-UTF-8 string section".to_string()))
}

impl Session {
    /// Serialize to the compact binary framing.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.request.len() + self.report.len());
        out.extend_from_slice(SESSION_MAGIC);
        out.extend_from_slice(&self.schema.to_le_bytes());
        section(&mut out, T_REQUEST, self.request.as_bytes());
        let layout: Vec<u8> = self.layout.iter().map(|&b| u8::from(b)).collect();
        section(&mut out, T_LAYOUT, &layout);
        section(&mut out, T_ENERGY, &self.energy_bits.to_le_bytes());
        section(&mut out, T_STATUS, self.status.as_bytes());
        section(&mut out, T_GAP, &self.gap_bits.to_le_bytes());
        if let Some(s) = &self.stopped_by {
            section(&mut out, T_STOPPED, s.as_bytes());
        }
        if let Some(r) = &self.reason {
            section(&mut out, T_REASON, r.as_bytes());
        }
        section(&mut out, T_NODES, &self.nodes.to_le_bytes());
        section(&mut out, T_REPORT, self.report.as_bytes());
        let mut order = Vec::with_capacity(4 * self.log.order.len());
        for &v in &self.log.order {
            order.extend_from_slice(&v.to_le_bytes());
        }
        section(&mut out, T_ORDER, &order);
        section(&mut out, T_LOG_NODES, &self.log.nodes.to_le_bytes());
        if let Some(s) = &self.log.stop {
            section(&mut out, T_LOG_STOP, s.as_bytes());
        }
        for inc in &self.log.incumbents {
            let mut p = Vec::with_capacity(24 + inc.on_spm.len());
            p.extend_from_slice(&inc.node.to_le_bytes());
            p.extend_from_slice(&inc.objective_bits.to_le_bytes());
            p.extend_from_slice(&(inc.on_spm.len() as u64).to_le_bytes());
            p.extend(inc.on_spm.iter().map(|&b| u8::from(b)));
            section(&mut out, T_INCUMBENT, &p);
        }
        for b in &self.log.bounds {
            let mut p = Vec::with_capacity(16);
            p.extend_from_slice(&b.node.to_le_bytes());
            p.extend_from_slice(&b.value_bits.to_le_bytes());
            section(&mut out, T_BOUND, &p);
        }
        for (k, v) in &self.meta {
            let mut p = Vec::with_capacity(16 + k.len() + v.len());
            p.extend_from_slice(&(k.len() as u64).to_le_bytes());
            p.extend_from_slice(k.as_bytes());
            p.extend_from_slice(&(v.len() as u64).to_le_bytes());
            p.extend_from_slice(v.as_bytes());
            section(&mut out, T_META, &p);
        }
        out
    }

    /// Parse the binary framing. Unknown section tags are skipped
    /// (forward compatibility); truncated input and schema numbers
    /// above [`SESSION_SCHEMA`] are errors.
    ///
    /// # Errors
    ///
    /// [`SessionError::Format`] describing the first violation.
    pub fn from_binary(bytes: &[u8]) -> Result<Session, SessionError> {
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(8)? != SESSION_MAGIC {
            return Err(SessionError::Format(
                "not a casa session file (bad magic)".to_string(),
            ));
        }
        let schema = c.u32()?;
        if schema > SESSION_SCHEMA {
            return Err(SessionError::Format(format!(
                "unsupported session schema {schema} (this reader understands up to {SESSION_SCHEMA})"
            )));
        }
        let mut s = Session {
            schema,
            ..Session::default()
        };
        let (mut saw_request, mut saw_status, mut saw_report) = (false, false, false);
        while !c.done() {
            let tag = c.u16()?;
            let len = c.u64()?;
            let len = usize::try_from(len)
                .map_err(|_| SessionError::Format("section length overflows".to_string()))?;
            let payload = c.take(len)?;
            match tag {
                T_REQUEST => {
                    s.request = utf8(payload)?;
                    saw_request = true;
                }
                T_LAYOUT => s.layout = payload.iter().map(|&b| b != 0).collect(),
                T_ENERGY => {
                    let mut c = Cursor {
                        bytes: payload,
                        pos: 0,
                    };
                    s.energy_bits = c.u64()?;
                }
                T_STATUS => {
                    s.status = utf8(payload)?;
                    saw_status = true;
                }
                T_GAP => {
                    let mut c = Cursor {
                        bytes: payload,
                        pos: 0,
                    };
                    s.gap_bits = c.u64()?;
                }
                T_STOPPED => s.stopped_by = Some(utf8(payload)?),
                T_REASON => s.reason = Some(utf8(payload)?),
                T_NODES => {
                    let mut c = Cursor {
                        bytes: payload,
                        pos: 0,
                    };
                    s.nodes = c.u64()?;
                }
                T_REPORT => {
                    s.report = utf8(payload)?;
                    saw_report = true;
                }
                T_ORDER => {
                    if !payload.len().is_multiple_of(4) {
                        return Err(SessionError::Format(
                            "order section length not a multiple of 4".to_string(),
                        ));
                    }
                    let mut c = Cursor {
                        bytes: payload,
                        pos: 0,
                    };
                    s.log.order = (0..payload.len() / 4)
                        .map(|_| c.u32())
                        .collect::<Result<_, _>>()?;
                }
                T_LOG_NODES => {
                    let mut c = Cursor {
                        bytes: payload,
                        pos: 0,
                    };
                    s.log.nodes = c.u64()?;
                }
                T_LOG_STOP => s.log.stop = Some(utf8(payload)?),
                T_INCUMBENT => {
                    let mut c = Cursor {
                        bytes: payload,
                        pos: 0,
                    };
                    let node = c.u64()?;
                    let objective_bits = c.u64()?;
                    let count = usize::try_from(c.u64()?)
                        .map_err(|_| SessionError::Format("incumbent count overflows".into()))?;
                    let flags = c.take(count)?;
                    s.log.incumbents.push(Incumbent {
                        node,
                        objective_bits,
                        on_spm: flags.iter().map(|&b| b != 0).collect(),
                    });
                }
                T_BOUND => {
                    let mut c = Cursor {
                        bytes: payload,
                        pos: 0,
                    };
                    s.log.bounds.push(BoundUpdate {
                        node: c.u64()?,
                        value_bits: c.u64()?,
                    });
                }
                T_META => {
                    let mut c = Cursor {
                        bytes: payload,
                        pos: 0,
                    };
                    let klen = usize::try_from(c.u64()?)
                        .map_err(|_| SessionError::Format("meta key length overflows".into()))?;
                    let key = utf8(c.take(klen)?)?;
                    let vlen = usize::try_from(c.u64()?)
                        .map_err(|_| SessionError::Format("meta value length overflows".into()))?;
                    let val = utf8(c.take(vlen)?)?;
                    s.meta.push((key, val));
                }
                _ => {} // unknown tag: payload already consumed, skip
            }
        }
        if !saw_request || !saw_status || !saw_report {
            return Err(SessionError::Format(
                "session file missing a required section (request/status/report)".to_string(),
            ));
        }
        Ok(s)
    }

    /// Write the session to `path` in the binary framing.
    ///
    /// # Errors
    ///
    /// [`SessionError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), SessionError> {
        std::fs::write(path, self.to_binary()).map_err(SessionError::Io)
    }

    /// Read a session written by [`Session::save`] from `path`.
    ///
    /// # Errors
    ///
    /// [`SessionError::Io`] on filesystem failure,
    /// [`SessionError::Format`] on malformed content.
    pub fn load(path: &Path) -> Result<Session, SessionError> {
        let bytes = std::fs::read(path).map_err(SessionError::Io)?;
        Session::from_binary(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What a successful replay certified.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// The replayed status tag (equal to the recording's).
    pub status: String,
    /// The replayed gap (`None` for fallback outcomes).
    pub gap: Option<f64>,
    /// Solver nodes the recorded solve cost.
    pub nodes: u64,
}

fn budget_kind(tag: &str) -> Option<BudgetKind> {
    match tag {
        "nodes" => Some(BudgetKind::Nodes),
        "deadline" => Some(BudgetKind::Deadline),
        "cancelled" => Some(BudgetKind::Cancelled),
        _ => None,
    }
}

impl Session {
    fn parsed_job(&self) -> Result<SolveJob, ReplayError> {
        match parse_request(&self.request).map_err(|e| ReplayError::Request(e.to_string()))? {
            ParsedRequest::Graph(job) => Ok(job),
            ParsedRequest::Workload(_) => Err(ReplayError::Unsupported(
                "workload-form requests cannot be replayed offline (the recorder resolves them \
                 to graph form before capture)"
                    .to_string(),
            )),
        }
    }

    /// Re-execute the solve from the recorded decision log and assert
    /// the recording is internally consistent and byte-reproducible:
    /// branch order, incumbent feasibility and monotone improvement,
    /// gap recomputed from the recorded bit patterns, final energy,
    /// and the regenerated report must all match.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Mismatch`] pinpointing the first discrepancy,
    /// [`ReplayError::Request`] / [`ReplayError::Unsupported`] when
    /// the recorded request cannot be rebuilt.
    pub fn replay(&self) -> Result<ReplaySummary, ReplayError> {
        let job = self.parsed_job()?;
        let model = EnergyModel::new(&job.graph, &job.table);
        if self.status == "fallback" {
            // Fallback answers carry no solver log: verify the parts
            // that are derivable (energy, report) and echo the rest.
            let status = AllocStatus::Fallback {
                reason: self.reason.clone().unwrap_or_default(),
            };
            return self.finish(&job, &model, status);
        }
        match job.allocator {
            AllocatorKind::CasaBb => self.replay_bb(&job, &model),
            AllocatorKind::CasaIlpPaper | AllocatorKind::CasaIlpTight => {
                self.replay_ilp(&job, &model)
            }
            AllocatorKind::CasaGreedy | AllocatorKind::Steinke | AllocatorKind::None => {
                self.replay_rerun(&job, &model)
            }
        }
    }

    /// Replay the specialized B&B: re-derive the static branch order,
    /// walk the incumbent log, and recompute the gap from the root
    /// bound and the recorded final objective bits.
    fn replay_bb(
        &self,
        job: &SolveJob,
        model: &EnergyModel<'_>,
    ) -> Result<ReplaySummary, ReplayError> {
        let sm = SavingsModel::new(model, job.capacity);
        let want: Vec<u32> = sm.order().iter().map(|&i| i as u32).collect();
        if self.log.order != want {
            let at = self
                .log
                .order
                .iter()
                .zip(&want)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| self.log.order.len().min(want.len()));
            return Err(ReplayError::Mismatch(format!(
                "branch order diverges at position {at}: recorded {:?}, derived {:?}",
                self.log.order.get(at),
                want.get(at)
            )));
        }
        let n = job.graph.len();
        let mut prev = f64::NEG_INFINITY;
        for (k, inc) in self.log.incumbents.iter().enumerate() {
            if inc.on_spm.len() != n {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} has {} flags for {n} objects",
                    inc.on_spm.len()
                )));
            }
            if !sm.fits(&inc.on_spm, job.capacity) {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} violates the capacity constraint"
                )));
            }
            let obj = f64::from_bits(inc.objective_bits);
            if k > 0 && obj <= prev {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} does not improve on its predecessor ({obj} vs {prev})"
                )));
            }
            // The search accumulates savings incrementally, so the
            // recorded objective may differ from a from-scratch
            // evaluation by floating-point association — but only
            // within round-off.
            let exact = sm.exact_savings(&inc.on_spm);
            if (obj - exact).abs() > 1e-6 * exact.abs().max(1.0) {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} objective {obj} does not evaluate to its set's savings {exact}"
                )));
            }
            prev = obj;
        }
        let last = self.log.incumbents.last().ok_or_else(|| {
            ReplayError::Mismatch("no incumbents recorded for a solved instance".to_string())
        })?;
        if last.on_spm != self.layout {
            return Err(ReplayError::Mismatch(
                "final incumbent differs from the recorded layout".to_string(),
            ));
        }
        let status = match &self.stopped_by {
            None => AllocStatus::Optimal,
            Some(_) => {
                let gap =
                    (sm.root_bound(job.capacity) - f64::from_bits(last.objective_bits)).max(0.0);
                AllocStatus::Feasible { gap }
            }
        };
        self.finish(job, model, status)
    }

    /// Replay an ILP solve: the log's incumbents must be feasible and
    /// strictly improving in the minimized objective, and the gap must
    /// recompute bit-exactly from the recorded objective/bound bits.
    fn replay_ilp(
        &self,
        job: &SolveJob,
        model: &EnergyModel<'_>,
    ) -> Result<ReplaySummary, ReplayError> {
        let n = job.graph.len();
        let mut prev = f64::INFINITY;
        for (k, inc) in self.log.incumbents.iter().enumerate() {
            if inc.on_spm.len() != n {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} has {} flags for {n} objects",
                    inc.on_spm.len()
                )));
            }
            let used: u64 = (0..n)
                .filter(|&i| inc.on_spm[i])
                .map(|i| u64::from(job.graph.size_of(i)))
                .sum();
            if used > u64::from(job.capacity) {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} violates the capacity constraint ({used} > {})",
                    job.capacity
                )));
            }
            let obj = f64::from_bits(inc.objective_bits);
            if k > 0 && obj >= prev {
                return Err(ReplayError::Mismatch(format!(
                    "incumbent {k} does not improve on its predecessor ({obj} vs {prev})"
                )));
            }
            prev = obj;
        }
        let last = self.log.incumbents.last().ok_or_else(|| {
            ReplayError::Mismatch("no incumbents recorded for a solved instance".to_string())
        })?;
        if last.on_spm != self.layout {
            return Err(ReplayError::Mismatch(
                "final incumbent differs from the recorded layout".to_string(),
            ));
        }
        let status = match &self.stopped_by {
            None => AllocStatus::Optimal,
            Some(_) => {
                let obj = f64::from_bits(last.objective_bits);
                let gap = match self.log.bounds.last() {
                    Some(b) => (obj - f64::from_bits(b.value_bits)).max(0.0),
                    None => f64::INFINITY,
                };
                AllocStatus::Feasible { gap }
            }
        };
        self.finish(job, model, status)
    }

    /// Replay a heuristic/baseline solve by full re-execution — these
    /// allocators are deterministic and effectively instantaneous, so
    /// re-running them IS the log.
    fn replay_rerun(
        &self,
        job: &SolveJob,
        model: &EnergyModel<'_>,
    ) -> Result<ReplaySummary, ReplayError> {
        let out = crate::engine::allocate_budgeted(
            model,
            job.capacity,
            job.allocator,
            &job.budget(),
            &Obs::disabled(),
        );
        if out.allocation.on_spm != self.layout {
            return Err(ReplayError::Mismatch(
                "re-executed layout differs from the recording".to_string(),
            ));
        }
        let replayed = out.stopped_by.map(|k| k.as_str().to_string());
        if replayed != self.stopped_by {
            return Err(ReplayError::Mismatch(format!(
                "stop disposition differs: recorded {:?}, re-executed {replayed:?}",
                self.stopped_by
            )));
        }
        self.finish(job, model, out.status)
    }

    /// Common tail: energy bits, status tag, gap bits, and the
    /// regenerated report must all match the recording.
    fn finish(
        &self,
        job: &SolveJob,
        model: &EnergyModel<'_>,
        status: AllocStatus,
    ) -> Result<ReplaySummary, ReplayError> {
        if self.layout.len() != job.graph.len() {
            return Err(ReplayError::Mismatch(format!(
                "layout has {} flags for {} objects",
                self.layout.len(),
                job.graph.len()
            )));
        }
        let energy = model.total_energy(&self.layout);
        if energy.to_bits() != self.energy_bits {
            return Err(ReplayError::Mismatch(format!(
                "energy differs: recorded bits {:016x}, recomputed {:016x} ({energy})",
                self.energy_bits,
                energy.to_bits()
            )));
        }
        if status.as_str() != self.status {
            return Err(ReplayError::Mismatch(format!(
                "status differs: recorded {:?}, replayed {:?}",
                self.status,
                status.as_str()
            )));
        }
        match status.gap() {
            Some(g) => {
                if g.to_bits() != self.gap_bits {
                    return Err(ReplayError::Mismatch(format!(
                        "gap differs: recorded bits {:016x} ({}), replayed {:016x} ({g})",
                        self.gap_bits,
                        f64::from_bits(self.gap_bits),
                        g.to_bits()
                    )));
                }
            }
            None => {
                if self.gap_bits != f64::NAN.to_bits() {
                    return Err(ReplayError::Mismatch(
                        "recording claims a gap for a fallback outcome".to_string(),
                    ));
                }
            }
        }
        let stopped_by = match &self.stopped_by {
            None => None,
            Some(tag) => Some(budget_kind(tag).ok_or_else(|| {
                ReplayError::Request(format!("unknown stop disposition {tag:?}"))
            })?),
        };
        let out = AllocOutcome {
            allocation: Allocation {
                on_spm: self.layout.clone(),
                predicted_energy: Some(energy),
                solver_nodes: self.nodes,
            },
            status: status.clone(),
            stopped_by,
        };
        let regen = response_json(job, &out, model);
        if regen != self.report {
            let at = regen
                .bytes()
                .zip(self.report.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| regen.len().min(self.report.len()));
            return Err(ReplayError::Mismatch(format!(
                "regenerated report differs from the recording at byte {at}"
            )));
        }
        Ok(ReplaySummary {
            status: self.status.clone(),
            gap: status.gap(),
            nodes: self.nodes,
        })
    }

    /// Re-solve the recorded request from scratch (cold: no warm
    /// start) with a fresh recorder and report the first decision
    /// where the fresh search departs from the recorded log — `None`
    /// when the logs are identical.
    ///
    /// Divergence is not necessarily a bug: a session captured from a
    /// warm-started server solve legitimately diverges at incumbent 0
    /// (the warm hint is not part of the request), and wall-clock
    /// budgets stop nondeterministically. The point of this mode is to
    /// say *where*.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Request`] / [`ReplayError::Unsupported`] when
    /// the recorded request cannot be rebuilt.
    pub fn divergence(&self) -> Result<Option<String>, ReplayError> {
        let job = self.parsed_job()?;
        let model = EnergyModel::new(&job.graph, &job.table);
        let rec = SessionRecorder::enabled();
        let _ = allocate_traced(
            &model,
            job.capacity,
            job.allocator,
            &job.budget(),
            None,
            &Obs::disabled(),
            &rec,
            &TreeRecorder::disabled(),
        );
        let fresh = rec.take().unwrap_or_default();
        Ok(diff_logs(&self.log, &fresh))
    }
}

/// First difference between two decision logs, human-readable.
fn diff_logs(recorded: &DecisionLog, fresh: &DecisionLog) -> Option<String> {
    let order_len = recorded.order.len().max(fresh.order.len());
    for i in 0..order_len {
        let (a, b) = (recorded.order.get(i), fresh.order.get(i));
        if a != b {
            return Some(format!(
                "branch order diverges at decision {i}: recorded {a:?}, fresh {b:?}"
            ));
        }
    }
    let inc_len = recorded.incumbents.len().max(fresh.incumbents.len());
    for i in 0..inc_len {
        match (recorded.incumbents.get(i), fresh.incumbents.get(i)) {
            (Some(a), Some(b)) => {
                if a.node != b.node {
                    return Some(format!(
                        "incumbent {i} adopted at different nodes: recorded {}, fresh {}",
                        a.node, b.node
                    ));
                }
                if a.objective_bits != b.objective_bits {
                    return Some(format!(
                        "incumbent {i} objective differs: recorded {} , fresh {}",
                        f64::from_bits(a.objective_bits),
                        f64::from_bits(b.objective_bits)
                    ));
                }
                if a.on_spm != b.on_spm {
                    return Some(format!("incumbent {i} chose a different set"));
                }
            }
            (a, b) => {
                return Some(format!(
                    "incumbent {i} present in {} log only",
                    if a.is_some() && b.is_none() {
                        "the recorded"
                    } else {
                        "the fresh"
                    }
                ));
            }
        }
    }
    let bound_len = recorded.bounds.len().max(fresh.bounds.len());
    for i in 0..bound_len {
        let (a, b) = (recorded.bounds.get(i), fresh.bounds.get(i));
        if a != b {
            return Some(format!(
                "bound update {i} differs: recorded {a:?}, fresh {b:?}"
            ));
        }
    }
    if recorded.stop != fresh.stop {
        return Some(format!(
            "stop disposition differs: recorded {:?}, fresh {:?}",
            recorded.stop, fresh.stop
        ));
    }
    if recorded.nodes != fresh.nodes {
        return Some(format!(
            "node count differs: recorded {}, fresh {}",
            recorded.nodes, fresh.nodes
        ));
    }
    None
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a session file could not be written or read.
#[derive(Debug)]
pub enum SessionError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed or unsupported content.
    Format(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "session i/o: {e}"),
            SessionError::Format(msg) => write!(f, "session format: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Why a replay could not certify a recording.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The recorded request failed to parse back into a job.
    Request(String),
    /// The recording is valid but not replayable offline.
    Unsupported(String),
    /// The first discrepancy between the recording and the replay.
    Mismatch(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Request(msg) => write!(f, "replay request: {msg}"),
            ReplayError::Unsupported(msg) => write!(f, "replay unsupported: {msg}"),
            ReplayError::Mismatch(msg) => write!(f, "replay mismatch: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::ConflictGraph;
    use casa_energy::{EnergyTable, TechParams};
    use std::collections::HashMap;

    fn job(allocator: AllocatorKind, budget_nodes: Option<u64>) -> SolveJob {
        let mut edges = HashMap::new();
        edges.insert((0, 1), 500);
        edges.insert((1, 2), 120);
        edges.insert((2, 3), 5);
        let graph = ConflictGraph::from_parts(vec![900, 800, 300, 10], vec![16, 16, 16, 16], edges);
        let table = EnergyTable::build(64, 16, 1, 32, None, &TechParams::default());
        SolveJob {
            graph,
            table,
            capacity: 32,
            allocator,
            budget_nodes,
            budget_ms: None,
            explain: false,
        }
    }

    fn record(job: &SolveJob) -> Session {
        let model = EnergyModel::new(&job.graph, &job.table);
        let rec = SessionRecorder::enabled();
        let out = allocate_traced(
            &model,
            job.capacity,
            job.allocator,
            &job.budget(),
            None,
            &Obs::disabled(),
            &rec,
            &TreeRecorder::disabled(),
        );
        Session::capture(
            job,
            &out,
            &model,
            rec.take().expect("enabled recorder"),
            vec![("kind".to_string(), "test".to_string())],
        )
    }

    #[test]
    fn request_json_is_a_parse_fixpoint() {
        let j = job(AllocatorKind::CasaBb, Some(1000));
        let text = request_json(&j);
        let ParsedRequest::Graph(back) = parse_request(&text).expect("canonical request parses")
        else {
            panic!("graph request parsed as workload");
        };
        assert_eq!(request_json(&back), text);
    }

    #[test]
    fn self_edge_graph_round_trips_and_replays() {
        // Profiled conflict graphs carry self-edges m_ii, and the model
        // prices them, so a recorded request holding one must parse
        // back to itself and replay.
        let mut edges = HashMap::new();
        edges.insert((0, 0), 300);
        edges.insert((0, 1), 500);
        edges.insert((1, 1), 40);
        edges.insert((2, 1), 120);
        let graph = ConflictGraph::from_parts(vec![900, 800, 300], vec![16, 16, 16], edges);
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpTight,
            AllocatorKind::Steinke,
        ] {
            let j = SolveJob {
                graph: graph.clone(),
                ..job(kind, None)
            };
            let text = request_json(&j);
            assert!(text.contains("[0,0,300]"), "{text}");
            let ParsedRequest::Graph(back) =
                parse_request(&text).unwrap_or_else(|e| panic!("{kind:?}: {e}"))
            else {
                panic!("graph request parsed as workload");
            };
            assert_eq!(request_json(&back), text, "{kind:?}");
            let s = record(&j);
            s.replay().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(s.divergence().expect("replayable"), None, "{kind:?}");
        }
    }

    #[test]
    fn every_allocator_records_a_replayable_session() {
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
            AllocatorKind::CasaGreedy,
            AllocatorKind::Steinke,
            AllocatorKind::None,
        ] {
            let j = job(kind, None);
            let s = record(&j);
            let summary = s.replay().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(summary.status, s.status, "{kind:?}");
            assert_eq!(summary.nodes, s.nodes, "{kind:?}");
        }
    }

    #[test]
    fn budget_truncated_bb_session_replays_with_its_gap() {
        let j = job(AllocatorKind::CasaBb, Some(1));
        let s = record(&j);
        assert_eq!(s.status, "feasible");
        assert_eq!(s.stopped_by.as_deref(), Some("nodes"));
        let summary = s.replay().expect("replay");
        let gap = summary.gap.expect("feasible claims a gap");
        assert!(gap.is_finite() && gap >= 0.0);
        assert_eq!(gap.to_bits(), s.gap_bits);
    }

    #[test]
    fn tampered_layout_energy_or_report_is_caught() {
        let j = job(AllocatorKind::CasaBb, None);
        let good = record(&j);
        good.replay().expect("pristine session replays");

        let mut bad = good.clone();
        bad.layout[0] = !bad.layout[0];
        assert!(matches!(bad.replay(), Err(ReplayError::Mismatch(_))));

        let mut bad = good.clone();
        bad.energy_bits ^= 1;
        assert!(matches!(bad.replay(), Err(ReplayError::Mismatch(_))));

        let mut bad = good.clone();
        bad.report = bad.report.replace("optimal", "feasible");
        assert!(matches!(bad.replay(), Err(ReplayError::Mismatch(_))));

        let mut bad = good;
        if let Some(last) = bad.log.incumbents.last_mut() {
            last.objective_bits = (f64::from_bits(last.objective_bits) * 2.0).to_bits();
        }
        assert!(matches!(bad.replay(), Err(ReplayError::Mismatch(_))));
    }

    #[test]
    fn cold_recorded_session_has_no_divergence() {
        for kind in [
            AllocatorKind::CasaBb,
            AllocatorKind::CasaIlpPaper,
            AllocatorKind::CasaIlpTight,
            AllocatorKind::CasaGreedy,
            AllocatorKind::Steinke,
            AllocatorKind::None,
        ] {
            for nodes in [None, Some(1), Some(3)] {
                let s = record(&job(kind, nodes));
                assert_eq!(
                    s.divergence().expect("replayable"),
                    None,
                    "{kind:?} at node budget {nodes:?}"
                );
            }
        }
        // A perturbed log diverges, and the report says where.
        let mut bad = record(&job(AllocatorKind::CasaBb, None));
        bad.log.nodes += 1;
        let d = bad.divergence().expect("replayable").expect("diverges");
        assert!(d.contains("node count"), "{d}");
    }

    #[test]
    fn binary_round_trip_is_identity() {
        let j = job(AllocatorKind::CasaBb, Some(3));
        let s = record(&j);
        assert_eq!(Session::from_binary(&s.to_binary()).expect("binary"), s);
    }

    #[test]
    fn binary_reader_skips_unknown_tags_and_rejects_truncation() {
        let s = record(&job(AllocatorKind::CasaGreedy, None));
        let mut bytes = s.to_binary();
        // Unknown trailing section: skipped, still equal.
        section(&mut bytes, 0x7FFF, b"from the future");
        assert_eq!(Session::from_binary(&bytes).expect("tolerant"), s);
        // Any prefix cut inside a section is a truncation error.
        let cut = bytes.len() - 4;
        assert!(matches!(
            Session::from_binary(&bytes[..cut]),
            Err(SessionError::Format(_))
        ));
    }

    #[test]
    fn newer_schema_is_rejected() {
        let mut s = record(&job(AllocatorKind::CasaGreedy, None));
        s.schema = SESSION_SCHEMA + 1;
        assert!(matches!(
            Session::from_binary(&s.to_binary()),
            Err(SessionError::Format(_))
        ));
    }

    #[test]
    fn saved_session_loads_back_and_json_is_refused() {
        let dir =
            std::env::temp_dir().join(format!("casa-session-save-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let s = record(&job(AllocatorKind::CasaBb, None));
        let bin = dir.join("one.casa-session");
        s.save(&bin).expect("save");
        assert_eq!(Session::load(&bin).expect("load"), s);
        assert!(std::fs::read(&bin)
            .expect("read")
            .starts_with(SESSION_MAGIC));
        // A JSON file is not a session: a clean format error, no panic.
        let json = dir.join("one.json");
        std::fs::write(&json, s.report.as_bytes()).expect("write json");
        assert!(matches!(Session::load(&json), Err(SessionError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}

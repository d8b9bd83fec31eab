//! Append-only run-history store: one JSON line per sweep run.
//!
//! `BENCH_sweep.json` answers "what did the *latest* run measure";
//! this module answers "how has that been trending". Every sweep run
//! appends one [`HistoryRecord`] line to `BENCH_history.jsonl` —
//! schema version, timestamp, the grid fingerprint
//! ([`crate::sweep::SweepGrid::fingerprint`]), per-cell results,
//! per-phase wall clocks, and a flattened metrics rollup — and never
//! rewrites old lines, so the perf/energy trajectory of the repo
//! accumulates instead of being clobbered.
//!
//! The reader is hand-rolled on the vendored JSON parser and is
//! **tolerant of unknown fields**: future schema versions may add
//! fields freely, and old readers will keep extracting what they know.
//! Lines that fail to parse (or miss a required field) are skipped and
//! counted, never fatal — a corrupt tail must not invalidate the
//! trajectory before it.
//!
//! Schema policy: [`HISTORY_SCHEMA`] bumps only when the *meaning* of
//! an existing field changes; additions are free. The regression
//! sentinel ([`crate::sentinel`]) only compares records whose schema
//! version and grid fingerprint both match.

use crate::sweep::{CellResult, PhaseRollup, SweepReport};
use casa_core::parse_explain;
use casa_obs::{
    jnum, json_escape, timeseries_json, MetricValue, MetricsSnapshot, TimeSeriesSnapshot,
};
use serde::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Current history-record schema version.
pub const HISTORY_SCHEMA: u32 = 1;

/// How many top-regret objects the per-cell explain census keeps.
pub const CENSUS_TOP: usize = 5;

/// Per-cell measurements as persisted in a history record — the
/// deterministic result columns plus the (noisy, never
/// exact-compared) wall clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryCell {
    /// Benchmark name.
    pub benchmark: String,
    /// Trip scale of the workload.
    pub scale: u64,
    /// Walker seed of the workload.
    pub seed: u64,
    /// `spm:<allocator>` or `loop-cache`.
    pub flavor: String,
    /// I-cache size in bytes.
    pub cache_size: u32,
    /// I-cache replacement policy.
    pub policy: String,
    /// SPM size or loop-cache capacity in bytes.
    pub local_size: u32,
    /// Total instruction-memory energy, µJ (deterministic).
    pub energy_uj: f64,
    /// I-cache misses in the final simulation (deterministic).
    pub cache_misses: u64,
    /// Solver tree-search nodes (deterministic; `None` for flows
    /// without a tree search).
    pub solver_nodes: Option<u64>,
    /// Allocation proof status.
    pub status: String,
    /// Proven absolute optimality gap (deterministic under node
    /// budgets).
    pub gap: Option<f64>,
    /// Allocator wall time, seconds (noisy).
    pub solver_secs: f64,
    /// Whole-cell wall time, seconds (noisy).
    pub cell_secs: f64,
}

impl HistoryCell {
    /// Identity of the cell inside one grid: everything that names its
    /// configuration, nothing that it measured.
    pub fn key(&self) -> String {
        format!(
            "{}/s{}/r{}/{}/c{}/{}/l{}",
            self.benchmark,
            self.scale,
            self.seed,
            self.flavor,
            self.cache_size,
            self.policy,
            self.local_size
        )
    }
}

impl From<&CellResult> for HistoryCell {
    fn from(c: &CellResult) -> HistoryCell {
        HistoryCell {
            benchmark: c.benchmark.clone(),
            scale: c.scale,
            seed: c.seed,
            flavor: c.flavor.clone(),
            cache_size: c.cache_size,
            policy: c.policy.clone(),
            local_size: c.local_size,
            energy_uj: c.energy_uj,
            cache_misses: c.cache_misses,
            solver_nodes: c.solver_nodes,
            status: c.status.clone(),
            gap: c.gap,
            solver_secs: c.solver_secs,
            cell_secs: c.cell_secs,
        }
    }
}

/// One object of a cell's explain census: the highest-regret
/// placements of the run, compact enough to persist on every line.
#[derive(Debug, Clone, PartialEq)]
pub struct CensusObject {
    /// Object index in the cell's conflict graph.
    pub index: usize,
    /// Whether the run placed it on the scratchpad.
    pub on_spm: bool,
    /// Energy at stake in the placement, nJ (the explain document's
    /// regret: linear saving plus realized conflict premium).
    pub regret: f64,
}

/// Top-regret object census of one cell, distilled from its explain
/// document when the sweep ran with capture. An *addition* under the
/// schema policy: absent on old lines (and on runs without capture),
/// and [`crate::sentinel`] uses it only when both sides of a
/// comparison carry one.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainCensus {
    /// [`HistoryCell::key`] of the cell the census describes.
    pub key: String,
    /// Top [`CENSUS_TOP`] objects by regret (descending, ties by
    /// index).
    pub objects: Vec<CensusObject>,
}

/// Distill a cell's explain document to its census: parse, rank by
/// regret, keep the top [`CENSUS_TOP`]. `None` when the document is
/// missing or unreadable (census is context, never a hard dependency).
fn census_of(cell: &CellResult) -> Option<ExplainCensus> {
    let doc = parse_explain(cell.capture.as_ref()?.explain.as_deref()?).ok()?;
    let mut objects: Vec<&casa_core::ObjectExplain> = doc.objects.iter().collect();
    objects.sort_by(|a, b| {
        b.regret
            .partial_cmp(&a.regret)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.index.cmp(&b.index))
    });
    Some(ExplainCensus {
        key: HistoryCell::from(cell).key(),
        objects: objects
            .into_iter()
            .take(CENSUS_TOP)
            .map(|o| CensusObject {
                index: o.index,
                on_spm: o.on_spm,
                regret: o.regret,
            })
            .collect(),
    })
}

/// One appended line of `BENCH_history.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Schema version the record was written under.
    pub schema_version: u32,
    /// Unix timestamp (seconds) of the run.
    pub ts_unix_s: u64,
    /// [`crate::sweep::SweepGrid::fingerprint`] of the grid that ran.
    pub grid_hash: String,
    /// Worker threads used.
    pub threads: usize,
    /// Preparation-phase wall time, seconds (noisy).
    pub prepare_secs: f64,
    /// Execution-phase wall time, seconds (noisy).
    pub execute_secs: f64,
    /// Total sweep wall time, seconds (noisy).
    pub total_secs: f64,
    /// Per-cell results, grid order.
    pub cells: Vec<HistoryCell>,
    /// Per-phase span rollups (empty when observability was off).
    pub phases: Vec<PhaseRollup>,
    /// Flattened metrics rollup: counters and gauges by name,
    /// histograms as `<name>.count/.sum/.p50/.p90/.p99`.
    pub metrics: BTreeMap<String, f64>,
    /// Logical-tick time-series of the run (grid-order merge of
    /// `sweep.*` and per-cell series). An *addition* under the schema
    /// policy: old readers ignore the field, and records written
    /// before it parse back with an empty snapshot.
    pub timeseries: TimeSeriesSnapshot,
    /// Per-cell top-regret object census (grid order), present only
    /// when the sweep ran with capture. Same addition
    /// policy as the time-series.
    pub explain_census: Vec<ExplainCensus>,
}

/// Flatten a metrics snapshot to scalars for longitudinal storage:
/// counters and gauges keep their name, histograms expand to
/// `.count`, `.sum` and the within-bucket-interpolated
/// `.p50`/`.p90`/`.p99` quantile estimates (omitted when empty).
pub fn flatten_metrics(snap: &MetricsSnapshot) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, v) in snap {
        match v {
            MetricValue::Counter(c) => {
                out.insert(name.clone(), *c as f64);
            }
            MetricValue::Gauge(g) => {
                out.insert(name.clone(), *g);
            }
            MetricValue::Histogram(h) => {
                out.insert(format!("{name}.count"), h.count as f64);
                out.insert(format!("{name}.sum"), h.sum as f64);
                for (tag, q) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
                    if let Some(q) = q {
                        out.insert(format!("{name}.{tag}"), q);
                    }
                }
            }
        }
    }
    out
}

/// Seconds since the Unix epoch (0 if the clock is before it).
pub fn unix_now_s() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl HistoryRecord {
    /// Build the record for one finished sweep run.
    pub fn from_report(report: &SweepReport, grid_hash: &str, ts_unix_s: u64) -> HistoryRecord {
        HistoryRecord {
            schema_version: HISTORY_SCHEMA,
            ts_unix_s,
            grid_hash: grid_hash.to_string(),
            threads: report.threads,
            prepare_secs: report.prepare_secs,
            execute_secs: report.execute_secs,
            total_secs: report.total_secs,
            cells: report.cells.iter().map(HistoryCell::from).collect(),
            phases: report.phases.clone(),
            metrics: flatten_metrics(&report.metrics),
            timeseries: report.timeseries.clone(),
            explain_census: report.cells.iter().filter_map(census_of).collect(),
        }
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"schema_version\":{},\"ts_unix_s\":{},\"grid_hash\":\"{}\",\"threads\":{},\
             \"prepare_secs\":{},\"execute_secs\":{},\"total_secs\":{},\"cells\":[",
            self.schema_version,
            self.ts_unix_s,
            json_escape(&self.grid_hash),
            self.threads,
            jnum(self.prepare_secs),
            jnum(self.execute_secs),
            jnum(self.total_secs),
        );
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"benchmark\":\"{}\",\"scale\":{},\"seed\":{},\"flavor\":\"{}\",\
                 \"cache_size\":{},\"policy\":\"{}\",\"local_size\":{},\"energy_uj\":{},\
                 \"cache_misses\":{},\"solver_nodes\":{},\"status\":\"{}\",\"gap\":{},\
                 \"solver_secs\":{},\"cell_secs\":{}}}",
                json_escape(&c.benchmark),
                c.scale,
                c.seed,
                json_escape(&c.flavor),
                c.cache_size,
                json_escape(&c.policy),
                c.local_size,
                jnum(c.energy_uj),
                c.cache_misses,
                c.solver_nodes
                    .map_or_else(|| "null".to_string(), |n| n.to_string()),
                json_escape(&c.status),
                c.gap.map_or_else(|| "null".to_string(), jnum),
                jnum(c.solver_secs),
                jnum(c.cell_secs),
            );
        }
        s.push_str("],\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"count\":{},\"total_us\":{}}}",
                json_escape(&p.name),
                p.count,
                p.total_us
            );
        }
        s.push_str("],\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", json_escape(k), jnum(*v));
        }
        s.push('}');
        let _ = write!(s, ",\"timeseries\":{}", timeseries_json(&self.timeseries));
        if !self.explain_census.is_empty() {
            s.push_str(",\"explain_census\":[");
            for (i, c) in self.explain_census.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"key\":\"{}\",\"objects\":[", json_escape(&c.key));
                for (j, o) in c.objects.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"i\":{},\"on_spm\":{},\"regret\":{}}}",
                        o.index,
                        o.on_spm,
                        jnum(o.regret)
                    );
                }
                s.push_str("]}");
            }
            s.push(']');
        }
        s.push('}');
        s
    }

    /// Parse one history line. `None` when the line is not a JSON
    /// object or misses a required field — unknown *extra* fields are
    /// ignored by construction (only known keys are looked up).
    pub fn parse(line: &str) -> Option<HistoryRecord> {
        let v = serde::json::parse(line).ok()?;
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        let cells = v
            .get("cells")?
            .as_array()?
            .iter()
            .map(parse_cell)
            .collect::<Option<Vec<_>>>()?;
        let phases = v
            .get("phases")
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(parse_phase).collect())
            .unwrap_or_default();
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        Some(HistoryRecord {
            schema_version: num("schema_version")? as u32,
            ts_unix_s: num("ts_unix_s")? as u64,
            grid_hash: v.get("grid_hash")?.as_str()?.to_string(),
            threads: num("threads").unwrap_or(0.0) as usize,
            prepare_secs: num("prepare_secs").unwrap_or(0.0),
            execute_secs: num("execute_secs").unwrap_or(0.0),
            total_secs: num("total_secs").unwrap_or(0.0),
            cells,
            phases,
            metrics,
            timeseries: v
                .get("timeseries")
                .map(parse_timeseries)
                .unwrap_or_default(),
            explain_census: v
                .get("explain_census")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(parse_census).collect())
                .unwrap_or_default(),
        })
    }
}

/// Parse one census entry; malformed objects are skipped (diagnostic
/// context, not a required column).
fn parse_census(v: &Value) -> Option<ExplainCensus> {
    Some(ExplainCensus {
        key: v.get("key")?.as_str()?.to_string(),
        objects: v
            .get("objects")?
            .as_array()?
            .iter()
            .filter_map(|o| {
                Some(CensusObject {
                    index: o.get("i")?.as_f64()? as usize,
                    on_spm: o.get("on_spm")?.as_bool()?,
                    regret: o.get("regret")?.as_f64()?,
                })
            })
            .collect(),
    })
}

/// Parse an embedded `casa_timeseries` document back to a snapshot.
/// Malformed points are skipped (never fatal): the time-series is
/// diagnostic context, not a required column.
fn parse_timeseries(v: &Value) -> TimeSeriesSnapshot {
    let mut snap = TimeSeriesSnapshot {
        cap: v.get("cap").and_then(Value::as_f64).unwrap_or(0.0) as usize,
        dropped: v.get("dropped").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        series: BTreeMap::new(),
    };
    let Some(series) = v.get("series").and_then(Value::as_object) else {
        return snap;
    };
    for (name, points) in series {
        let Some(points) = points.as_array() else {
            continue;
        };
        let parsed: Vec<(u64, f64)> = points
            .iter()
            .filter_map(|p| {
                let p = p.as_array()?;
                let tick = p.first()?.as_f64()? as u64;
                // `null` marks a non-finite sample; keep the point.
                let value = p.get(1).and_then(Value::as_f64).unwrap_or(f64::NAN);
                Some((tick, value))
            })
            .collect();
        snap.series.insert(name.clone(), parsed);
    }
    snap
}

fn parse_cell(v: &Value) -> Option<HistoryCell> {
    let num = |k: &str| v.get(k).and_then(Value::as_f64);
    let s = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    Some(HistoryCell {
        benchmark: s("benchmark")?,
        scale: num("scale")? as u64,
        seed: num("seed")? as u64,
        flavor: s("flavor")?,
        cache_size: num("cache_size")? as u32,
        policy: s("policy")?,
        local_size: num("local_size")? as u32,
        energy_uj: num("energy_uj")?,
        cache_misses: num("cache_misses").unwrap_or(0.0) as u64,
        solver_nodes: num("solver_nodes").map(|n| n as u64),
        status: s("status").unwrap_or_default(),
        gap: num("gap"),
        solver_secs: num("solver_secs").unwrap_or(0.0),
        cell_secs: num("cell_secs").unwrap_or(0.0),
    })
}

fn parse_phase(v: &Value) -> Option<PhaseRollup> {
    Some(PhaseRollup {
        name: v.get("name")?.as_str()?.to_string(),
        count: v.get("count")?.as_f64()? as u64,
        total_us: v.get("total_us")?.as_f64()? as u64,
    })
}

/// What [`read_history`] returns: the parseable records in file order
/// plus how many non-empty lines were skipped as malformed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistoryLog {
    /// Records in append (= chronological) order.
    pub records: Vec<HistoryRecord>,
    /// Non-empty lines that failed to parse.
    pub skipped_lines: usize,
}

/// Append one record as a line to `path`, creating the file if needed.
pub fn append_record(path: &Path, record: &HistoryRecord) -> io::Result<()> {
    use io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(record.to_json_line().as_bytes())?;
    f.write_all(b"\n")
}

/// Read the whole history. A missing file is an empty history, not an
/// error; malformed lines are skipped and counted.
pub fn read_history(path: &Path) -> io::Result<HistoryLog> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(HistoryLog::default()),
        Err(e) => return Err(e),
    };
    let mut log = HistoryLog::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match HistoryRecord::parse(line) {
            Some(r) => log.records.push(r),
            None => log.skipped_lines += 1,
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_obs::{HistogramSnapshot, MetricValue};

    fn cell(benchmark: &str, energy: f64) -> HistoryCell {
        HistoryCell {
            benchmark: benchmark.to_string(),
            scale: 1,
            seed: 2004,
            flavor: "spm:CasaBb".to_string(),
            cache_size: 128,
            policy: "Lru".to_string(),
            local_size: 64,
            energy_uj: energy,
            cache_misses: 123,
            solver_nodes: Some(17),
            status: "optimal".to_string(),
            gap: Some(0.0),
            solver_secs: 0.01,
            cell_secs: 0.05,
        }
    }

    fn record(energy: f64) -> HistoryRecord {
        HistoryRecord {
            schema_version: HISTORY_SCHEMA,
            ts_unix_s: 1_700_000_000,
            grid_hash: "deadbeefdeadbeef".to_string(),
            threads: 2,
            prepare_secs: 0.2,
            execute_secs: 0.5,
            total_secs: 0.8,
            cells: vec![cell("adpcm", energy)],
            phases: vec![PhaseRollup {
                name: "solve".to_string(),
                count: 3,
                total_us: 1500,
            }],
            metrics: BTreeMap::from([("solver.nodes".to_string(), 17.0)]),
            timeseries: TimeSeriesSnapshot {
                cap: 8,
                dropped: 0,
                series: BTreeMap::from([
                    ("sweep.energy_uj".to_string(), vec![(0, energy)]),
                    ("bb.incumbent_savings".to_string(), vec![(1, 3.5), (4, 7.0)]),
                ]),
            },
            explain_census: vec![ExplainCensus {
                key: cell("adpcm", energy).key(),
                objects: vec![
                    CensusObject {
                        index: 6,
                        on_spm: true,
                        regret: 9_000.5,
                    },
                    CensusObject {
                        index: 2,
                        on_spm: false,
                        regret: 450.0,
                    },
                ],
            }],
        }
    }

    #[test]
    fn record_round_trips_through_its_own_line() {
        let r = record(123.456);
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "one record, one line");
        let back = HistoryRecord::parse(&line).expect("parse own output");
        assert_eq!(back, r);
    }

    #[test]
    fn reader_tolerates_unknown_fields() {
        let r = record(1.0);
        let line = r.to_json_line();
        // A future writer adds fields everywhere: top level, cell
        // level. The current reader must not care.
        let future = line
            .replacen(
                "{\"schema_version\"",
                "{\"hostname\":\"ci-runner-7\",\"schema_version\"",
                1,
            )
            .replacen(
                "{\"benchmark\"",
                "{\"future_column\":[1,2],\"benchmark\"",
                1,
            );
        let back = HistoryRecord::parse(&future).expect("unknown fields are ignored");
        assert_eq!(back, r);
    }

    #[test]
    fn append_and_read_skip_malformed_lines() {
        let path =
            std::env::temp_dir().join(format!("casa_history_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_record(&path, &record(1.0)).unwrap();
        // A torn write (crash mid-append) must not poison the log.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "{{\"schema_version\":1,\"truncat").unwrap();
        }
        append_record(&path, &record(2.0)).unwrap();
        let log = read_history(&path).unwrap();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.skipped_lines, 1);
        assert_eq!(log.records[0].cells[0].energy_uj, 1.0);
        assert_eq!(log.records[1].cells[0].energy_uj, 2.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lines_without_timeseries_parse_to_an_empty_snapshot() {
        // A record written before the timeseries field existed.
        let mut r = record(1.0);
        let line = r.to_json_line();
        let (prefix, _) = line.split_once(",\"timeseries\":").expect("field present");
        let old_line = format!("{prefix}}}");
        let back = HistoryRecord::parse(&old_line).expect("old line still parses");
        r.timeseries = TimeSeriesSnapshot::default();
        r.explain_census = Vec::new();
        assert_eq!(back, r);
    }

    #[test]
    fn missing_file_is_empty_history() {
        let log = read_history(Path::new("/nonexistent/casa/history.jsonl")).unwrap();
        assert!(log.records.is_empty());
        assert_eq!(log.skipped_lines, 0);
    }

    #[test]
    fn cell_key_names_configuration_not_measurement() {
        let a = cell("adpcm", 1.0);
        let b = cell("adpcm", 99.0);
        assert_eq!(a.key(), b.key(), "measurements don't change identity");
        let mut c = cell("adpcm", 1.0);
        c.local_size = 128;
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn flatten_expands_histograms_with_quantiles() {
        let mut snap = MetricsSnapshot::new();
        snap.insert("n".to_string(), MetricValue::Counter(5));
        snap.insert("g".to_string(), MetricValue::Gauge(1.5));
        let h = HistogramSnapshot {
            count: 2,
            sum: 5,
            buckets: vec![(1, 1), (7, 1)],
            min: Some(1),
            max: Some(4),
        };
        snap.insert("h".to_string(), MetricValue::Histogram(h));
        let flat = flatten_metrics(&snap);
        assert_eq!(flat.get("n"), Some(&5.0));
        assert_eq!(flat.get("g"), Some(&1.5));
        assert_eq!(flat.get("h.count"), Some(&2.0));
        assert_eq!(flat.get("h.sum"), Some(&5.0));
        assert_eq!(flat.get("h.p50"), Some(&1.0));
        assert_eq!(flat.get("h.p99"), Some(&4.0));
    }
}

//! Diagnostics toolbox, one subcommand per job:
//!
//! ```text
//! diag replay <file> [--divergence] [--report-out <path>]
//! diag tail <addr>
//! diag post <addr> <body-file> [--req-id <id>] [--out <path>]
//! diag probe <addr> [--quick] [--expect <family>]... [--expect-spans <name>] [--quit]
//! diag flight <path>
//! diag render-trace <path>
//! diag tree <path|dir> [--json]
//! diag explain <path|dir> [--top <n>]
//! diag help [<subcommand>]
//! diag                       # workload calibration tables (no subcommand)
//! ```
//!
//! `replay` loads a recorded `.casa-session`, re-executes the solve
//! from the recorded decision log, and asserts layout, energy, gap
//! and report byte-equivalence — exit 0 and a
//! `replay <file>: status=.. gap=.. nodes=..` line on success, exit 1
//! with the first mismatch otherwise. `--divergence` instead re-solves
//! from scratch and pinpoints the first decision where the fresh
//! search departs from the recording; `--report-out <path>` writes the
//! replay-verified response JSON.
//! `tail` fetches `/requests.json` and prints one greppable line per
//! journal entry (ID, route, status, latency, and — for `/solve` —
//! cache outcome, gap, nodes, queue wait, worker shard).
//! `post` POSTs a body file to `/solve` with an optional `--req-id`
//! correlation header, asserts the 200 and the ID echo, and writes the
//! reply body to `--out` (or stdout).
//! `probe` is a std-only HTTP client for the live telemetry service:
//! it checks `/healthz`, validates `/metrics` as Prometheus text
//! exposition, parses `/snapshot.json` and `/flight.json`, and — with
//! `--expect-spans <name>` — demands frames of `name` spans over
//! `/events`. `--quick`
//! only does the healthz + exposition checks (for polling until a
//! background run is ready); `--expect <family>` (repeatable) asserts
//! a metric family is declared; `--quit` sends `/quitquitquit` at the
//! end. Any failed check panics, so CI fails loudly.
//! `flight` re-parses a flight-recorder dump (written on panic, on
//! engine degradation, or by `Obs::dump_flight`) and prints its events
//! as a time-ordered table. `render-trace` re-parses a captured Chrome
//! `trace_event` file and prints its span tree.
//! `tree` and `explain` take one captured document or a whole capture
//! directory (`sweep --session-dir`, casa-server's `CASA_SESSION_DIR`),
//! whose `<stem>.tree.json` / `<stem>.explain.json` siblings they walk
//! in stem order under a `[<stem>]` header each.
//! `tree` renders a B&B search-tree log as a convergence report: event
//! breakdown by kind, incumbent trajectory with the local bound at
//! each adoption, and the deepest explored node. Values are in the
//! engine's recorded orientation (savings for the DFS allocator,
//! signed energy objective for the ILP engine). `--json` emits the
//! same convergence report as a deterministic sorted-key JSON document
//! instead of text.
//! `explain` renders a `casa_explain` document as a decision report:
//! the capacity shadow-price line, the top-N regret table (`--top
//! <n>`, default 10), and the flip-distance ranking.
//!
//! Without a subcommand, `diag` prints the workload calibration
//! tables (code size, hot-set size, baseline cache behaviour,
//! conflict-graph density, model fidelity) used to tune the synthetic
//! benchmarks; `--trace-out <path>` (or `CASA_TRACE=1`) instruments
//! the flows and appends a per-phase span-tree table.

use casa_bench::experiments::{paper_sizes, LINE_SIZE};
use casa_bench::runner::{cli_obs, cli_value, prepared};
use casa_core::flow::{run_spm_flow, AllocatorKind, FlowConfig, FlowCtx};
use casa_energy::TechParams;
use casa_mem::cache::CacheConfig;
use casa_obs::{
    collect_sse, header_value, http_get, http_request, render_flight_table, render_span_table,
    validate_exposition, ArgValue, EventKind, FlightEvent, FlightKind, TraceEvent,
    REQUEST_ID_HEADER,
};
use casa_workloads::mediabench;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

/// Rebuild span/instant events from a Chrome `trace_event` JSON file.
/// Parent links are not stored in the Chrome format; the span-tree
/// renderer reconstructs nesting from time containment per track.
fn parse_chrome_trace(json: &str) -> Vec<TraceEvent> {
    let v = serde::json::parse(json).expect("malformed trace JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    events
        .iter()
        .filter_map(|e| {
            let kind = match e.get("ph")?.as_str()? {
                "X" => EventKind::Span,
                "i" => EventKind::Instant,
                _ => return None,
            };
            Some(TraceEvent {
                name: e.get("name")?.as_str()?.to_string(),
                kind,
                tid: e.get("tid")?.as_f64()? as u32,
                parent: None,
                ts_us: e.get("ts")?.as_f64()? as u64,
                dur_us: e.get("dur").and_then(|d| d.as_f64()).map(|d| d as u64),
                args: Vec::new(),
            })
        })
        .collect()
}

/// Rebuild [`FlightEvent`]s from a flight-recorder dump
/// (`flight_dump_json` output). Unknown kinds are skipped rather than
/// fatal, so a newer dump still renders on an older `diag`.
fn parse_flight_dump(json: &str) -> (Vec<FlightEvent>, u64, u64) {
    let v = serde::json::parse(json).expect("malformed flight-dump JSON");
    assert!(
        v.get("casa_flight").and_then(|x| x.as_f64()).is_some(),
        "not a flight dump (missing casa_flight version field)"
    );
    let capacity = v.get("capacity").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
    let dropped = v.get("dropped").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
    let events = v
        .get("events")
        .and_then(|e| e.as_array())
        .expect("events array")
        .iter()
        .filter_map(|e| {
            let value = e.get("value").and_then(|val| {
                val.as_str()
                    .map(|s| ArgValue::Str(s.to_string()))
                    .or_else(|| val.as_f64().map(ArgValue::F64))
            });
            Some(FlightEvent {
                seq: e.get("seq")?.as_f64()? as u64,
                ts_us: e.get("ts_us")?.as_f64()? as u64,
                kind: FlightKind::from_tag(e.get("kind")?.as_str()?)?,
                name: e.get("name")?.as_str()?.to_string(),
                value,
            })
        })
        .collect();
    (events, capacity, dropped)
}

/// `probe`: validate a live telemetry server from the outside with
/// nothing but std TCP. Every failed check panics —
/// this is a CI gate, and CI wants loud failures.
fn probe(addr: &str, quick: bool) {
    let addr: SocketAddr = addr
        .parse()
        .unwrap_or_else(|e| panic!("probe takes host:port, got {addr}: {e}"));
    let t = Duration::from_secs(5);
    let get = |path: &str| -> (u16, String) {
        http_get(&addr, path, t).unwrap_or_else(|e| panic!("GET {path} on {addr}: {e}"))
    };

    let (code, body) = get("/healthz");
    assert_eq!(
        (code, body.as_str()),
        (200, "ok\n"),
        "unhealthy exporter at {addr}"
    );

    let (code, text) = get("/metrics");
    assert_eq!(code, 200, "/metrics returned {code}");
    let stats = validate_exposition(&text)
        .unwrap_or_else(|e| panic!("invalid Prometheus exposition from {addr}: {e}"));
    println!(
        "probe {addr}: /metrics is valid exposition ({} families, {} samples)",
        stats.families, stats.samples
    );

    // Families CI requires (`--expect <family>`, repeatable). Presence
    // means a `# TYPE <family> <kind>` declaration, which the exporter
    // writes for every family it serves.
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a != "--expect" {
            continue;
        }
        let fam = args.next().expect("--expect needs a metric family name");
        let declared = text.lines().any(|l| {
            l.strip_prefix("# TYPE ")
                .and_then(|rest| rest.split_whitespace().next())
                == Some(fam.as_str())
        });
        assert!(declared, "family `{fam}` missing from /metrics:\n{text}");
        println!("  expected family `{fam}`: present");
    }

    if !quick {
        let (code, body) = get("/snapshot.json");
        assert_eq!(code, 200, "/snapshot.json returned {code}");
        serde::json::parse(&body).expect("/snapshot.json is not valid JSON");
        let (code, body) = get("/flight.json");
        assert_eq!(code, 200, "/flight.json returned {code}");
        let flight = serde::json::parse(&body).expect("/flight.json is not valid JSON");
        assert!(
            flight.get("casa_flight").is_some(),
            "/flight.json is not a flight dump"
        );
        println!("  /snapshot.json and /flight.json parse");

        if let Some(name) = cli_value("--expect-spans") {
            // Subscribing replays the collector's retained events
            // first, so the probe sees spans that closed before it
            // connected. Closed spans replay as span_end frames (which
            // carry name, start and duration); span_begin frames only
            // stream live while a span is still open.
            let (frames, _pings) = collect_sse(&addr, "/events", Duration::from_millis(1500), 64)
                .unwrap_or_else(|e| panic!("GET /events on {addr}: {e}"));
            let is_span = |ev: &str| ev == "span_begin" || ev == "span_end";
            let spans = frames.iter().filter(|(ev, _)| is_span(ev)).count();
            let needle = format!("\"name\":\"{name}\"");
            let named = frames
                .iter()
                .filter(|(ev, data)| is_span(ev) && data.contains(&needle))
                .count();
            assert!(spans > 0, "no span frames over /events (got {frames:?})");
            assert!(named > 0, "no `{name}` span over /events (got {frames:?})");
            println!(
                "  /events streamed {} frame(s) ({spans} span frames, {named} covering `{name}`)",
                frames.len()
            );
        }
    }

    if std::env::args().any(|a| a == "--quit") {
        let (code, _) = get("/quitquitquit");
        assert_eq!(code, 200, "/quitquitquit returned {code}");
        println!("  released the server via /quitquitquit");
    }
    println!("probe {addr}: all checks passed");
}

/// `--tail <addr>`: fetch the request journal and print one greppable
/// line per entry, oldest first.
fn tail(addr: &str) {
    let addr: SocketAddr = addr
        .parse()
        .unwrap_or_else(|e| panic!("--tail takes host:port, got {addr}: {e}"));
    let t = Duration::from_secs(5);
    let (code, body) = http_get(&addr, "/requests.json", t)
        .unwrap_or_else(|e| panic!("GET /requests.json on {addr}: {e}"));
    assert_eq!(code, 200, "/requests.json returned {code}");
    let v = serde::json::parse(&body).expect("/requests.json is not valid JSON");
    let cap = v.get("cap").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
    let dropped = v.get("dropped").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
    let entries = v
        .get("entries")
        .and_then(|e| e.as_array())
        .expect("entries array");
    println!(
        "request journal of {addr}: {} entr(ies), cap {cap}, {dropped} dropped",
        entries.len()
    );
    for e in entries {
        let f = |k: &str| e.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
        let s = |k: &str| e.get(k).and_then(|x| x.as_str()).unwrap_or("-").to_string();
        let mut line = format!(
            "  #{:<6} {:<16} {:<4} {:<16} {} in {} out {} dur_us {}",
            f("seq"),
            s("id"),
            s("method"),
            s("path"),
            f("status"),
            f("bytes_in"),
            f("bytes_out"),
            f("handler_us"),
        );
        if let Some(solve) = e.get("solve").filter(|s| s.as_object().is_some()) {
            let gap = solve
                .get("gap")
                .and_then(|x| x.as_f64())
                .map_or("null".to_string(), |g| format!("{g}"));
            line.push_str(&format!(
                " | cache={} status={} gap={gap} nodes={} wait_us={} worker={}",
                solve.get("cache").and_then(|x| x.as_str()).unwrap_or("-"),
                solve.get("status").and_then(|x| x.as_str()).unwrap_or("-"),
                solve.get("nodes").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64,
                solve
                    .get("queue_wait_us")
                    .and_then(|x| x.as_f64())
                    .unwrap_or(0.0) as u64,
                solve.get("worker").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64,
            ));
        }
        println!("{line}");
    }
}

/// `--post <addr> <body-file>`: POST a solve request with an optional
/// `--req-id` correlation header, assert the 200 and the ID echo, and
/// write the reply body to `--out` (else stdout).
fn post_solve(addr: &str, body_path: &str) {
    let addr: SocketAddr = addr
        .parse()
        .unwrap_or_else(|e| panic!("--post takes host:port, got {addr}: {e}"));
    let body =
        std::fs::read_to_string(body_path).unwrap_or_else(|e| panic!("read {body_path}: {e}"));
    let req_id = cli_value("--req-id");
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(id) = &req_id {
        headers.push((REQUEST_ID_HEADER, id));
    }
    let (code, resp_headers, resp) = http_request(
        &addr,
        "POST",
        "/solve",
        &headers,
        Some(("application/json", &body)),
        Duration::from_secs(30),
    )
    .unwrap_or_else(|e| panic!("POST /solve on {addr}: {e}"));
    assert_eq!(code, 200, "POST /solve returned {code}: {resp}");
    let echoed = header_value(&resp_headers, REQUEST_ID_HEADER)
        .unwrap_or_else(|| panic!("no {REQUEST_ID_HEADER} header in reply"));
    if let Some(id) = &req_id {
        assert_eq!(echoed, id, "server echoed a different request ID");
    }
    let cache = header_value(&resp_headers, "X-Casa-Cache").unwrap_or("-");
    eprintln!("post {addr}: 200, id {echoed}, cache {cache}");
    match cli_value("--out") {
        Some(path) => std::fs::write(&path, &resp).unwrap_or_else(|e| panic!("write {path}: {e}")),
        None => println!("{resp}"),
    }
}

/// `replay <file>`: load a recorded session, re-execute it from the
/// decision log, and assert byte-equivalence with the recording.
fn replay_cmd(rest: &[String]) {
    let file = rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| {
            panic!("usage: diag replay <file> [--divergence] [--report-out <path>]")
        });
    let session = casa_core::Session::load(std::path::Path::new(file))
        .unwrap_or_else(|e| panic!("load {file}: {e}"));
    if rest.iter().any(|a| a == "--divergence") {
        // Divergence analysis: a fresh cold solve of the recorded
        // request, diffed decision-by-decision against the log. A
        // warm-started server capture legitimately diverges at its
        // first incumbent; the point of this mode is to say exactly
        // where and how.
        match session.divergence() {
            Ok(None) => println!("replay {file}: no divergence (cold re-solve matches the log)"),
            Ok(Some(d)) => {
                eprintln!("replay {file}: DIVERGENCE: {d}");
                std::process::exit(1);
            }
            Err(e) => panic!("replay {file}: request not re-solvable: {e}"),
        }
        return;
    }
    match session.replay() {
        Ok(summary) => {
            let gap = summary.gap.map_or("null".to_string(), |g| format!("{g}"));
            println!(
                "replay {file}: status={} gap={gap} nodes={}",
                summary.status, summary.nodes
            );
            if let Some(out) = cli_value("--report-out") {
                // replay() proved the regenerated response equals the
                // recorded bytes, so this *is* the regenerated report.
                std::fs::write(&out, session.report.as_bytes())
                    .unwrap_or_else(|e| panic!("write {out}: {e}"));
            }
        }
        Err(e) => {
            eprintln!("replay {file}: MISMATCH: {e}");
            std::process::exit(1);
        }
    }
}

/// Render one captured search tree as a convergence report: totals,
/// event breakdown by kind, the incumbent trajectory (with the local
/// bound at each adoption), and the deepest explored node.
fn render_tree_report(log: &casa_ilp::tree::TreeLog) -> String {
    use casa_ilp::tree::TreeEventKind;
    use std::fmt::Write as _;
    let fnum = |v: f64| {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "-".to_string()
        }
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {} node(s) explored, {} event(s) captured (cap {}, {} dropped)",
        log.nodes,
        log.events.len(),
        log.cap,
        log.dropped
    );
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for e in &log.events {
        *counts.entry(e.kind.as_str()).or_default() += 1;
    }
    let breakdown: Vec<String> = counts.iter().map(|(k, c)| format!("{k} {c}")).collect();
    let _ = writeln!(s, "  events: {}", breakdown.join(", "));
    let pruned = counts.get("prune_bound").copied().unwrap_or(0)
        + counts.get("prune_infeasible").copied().unwrap_or(0);
    let opened = counts.get("open").copied().unwrap_or(0);
    if opened > 0 {
        let _ = writeln!(
            s,
            "  pruning: {pruned}/{opened} opened node(s) cut ({:.1}%)",
            100.0 * pruned as f64 / opened as f64
        );
    }
    if let Some(deep) = log.events.iter().max_by_key(|e| e.depth) {
        let _ = writeln!(s, "  deepest node: #{} at depth {}", deep.node, deep.depth);
    }
    let incumbents: Vec<_> = log
        .events
        .iter()
        .filter(|e| e.kind == TreeEventKind::Incumbent)
        .collect();
    if incumbents.is_empty() {
        let _ = writeln!(s, "  no incumbent adopted within the captured window");
    } else {
        let _ = writeln!(s, "  convergence ({} incumbent(s)):", incumbents.len());
        let _ = writeln!(s, "    {:>10} {:>14} {:>14}", "node", "incumbent", "bound");
        for e in &incumbents {
            let _ = writeln!(
                s,
                "    {:>10} {:>14} {:>14}",
                e.node,
                fnum(e.best),
                fnum(e.bound)
            );
        }
    }
    s
}

/// The convergence report of one tree as a deterministic sorted-key
/// JSON object (what `diag tree --json` emits): totals, event
/// breakdown, pruning, deepest node and the incumbent trajectory —
/// derived from the log only, so identical logs give identical bytes.
fn tree_report_json(log: &casa_ilp::tree::TreeLog) -> String {
    use casa_ilp::tree::TreeEventKind;
    use casa_obs::jnum;
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for e in &log.events {
        *counts.entry(e.kind.as_str()).or_default() += 1;
    }
    let events: Vec<String> = counts.iter().map(|(k, c)| format!("\"{k}\":{c}")).collect();
    let pruned = counts.get("prune_bound").copied().unwrap_or(0)
        + counts.get("prune_infeasible").copied().unwrap_or(0);
    let deepest = log
        .events
        .iter()
        .max_by_key(|e| e.depth)
        .map_or("null".to_string(), |e| {
            format!("{{\"depth\":{},\"node\":{}}}", e.depth, e.node)
        });
    let incumbents: Vec<String> = log
        .events
        .iter()
        .filter(|e| e.kind == TreeEventKind::Incumbent)
        .map(|e| {
            format!(
                "{{\"best\":{},\"bound\":{},\"node\":{}}}",
                jnum(e.best),
                jnum(e.bound),
                e.node
            )
        })
        .collect();
    format!(
        "{{\"cap\":{},\"casa_tree_report\":1,\"deepest\":{deepest},\"dropped\":{},\
         \"events\":{{{}}},\"incumbents\":[{}],\"nodes\":{},\"pruned\":{pruned}}}",
        log.cap,
        log.dropped,
        events.join(","),
        incumbents.join(","),
        log.nodes,
    )
}

fn read_doc(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `<stem><suffix>` documents of the capture directory `path` as
/// `(stem, text)` pairs in stem order; `None` when `path` is a single
/// document instead.
fn capture_dir_docs(path: &str, suffix: &str) -> Option<Vec<(String, String)>> {
    let dir = Path::new(path);
    if !dir.is_dir() {
        return None;
    }
    let mut docs: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {path}: {e}"))
        .filter_map(|e| {
            let p = e.unwrap_or_else(|e| panic!("read {path}: {e}")).path();
            let stem = p.file_name()?.to_str()?.strip_suffix(suffix)?.to_string();
            Some((stem, read_doc(&p)))
        })
        .collect();
    docs.sort();
    Some(docs)
}

/// `tree <path|dir> [--json]`: render one `casa_tree` document, or
/// every tree of a capture directory, as convergence reports — human
/// text by default, a deterministic JSON document with `--json`.
fn tree_cmd(path: &str, as_json: bool) {
    let parse = |what: &str, json: &str| {
        casa_ilp::tree::parse_tree_log(json).unwrap_or_else(|e| panic!("{what}: {e}"))
    };
    let Some(docs) = capture_dir_docs(path, ".tree.json") else {
        let log = parse(path, &read_doc(Path::new(path)));
        if as_json {
            println!("{}", tree_report_json(&log));
        } else {
            println!("search tree {path}:");
            print!("{}", render_tree_report(&log));
        }
        return;
    };
    let logs: Vec<(String, casa_ilp::tree::TreeLog)> = docs
        .into_iter()
        .map(|(stem, json)| {
            let log = parse(&stem, &json);
            (stem, log)
        })
        .collect();
    if as_json {
        let cells: Vec<String> = logs
            .iter()
            .map(|(stem, log)| {
                format!(
                    "{{\"key\":\"{}\",\"report\":{}}}",
                    casa_obs::json_escape(stem),
                    tree_report_json(log)
                )
            })
            .collect();
        println!(
            "{{\"casa_tree_report_sweep\":1,\"cells\":[{}]}}",
            cells.join(",")
        );
        return;
    }
    println!("search trees {path}: {} captured tree(s)", logs.len());
    for (stem, log) in &logs {
        println!("[{stem}]");
        print!("{}", render_tree_report(log));
    }
}

/// `explain <path|dir> [--top <n>]`: render one `casa_explain`
/// document, or every explain document of a capture directory, as
/// decision reports — the shadow-price line, the top-N regret table,
/// and the flip-distance ranking.
fn explain_cmd(path: &str) {
    let top = cli_value("--top").map_or(10, |v| {
        v.parse()
            .unwrap_or_else(|e| panic!("--top takes a count, got {v}: {e}"))
    });
    let render = |what: &str, json: &str| {
        let doc = casa_core::parse_explain(json).unwrap_or_else(|e| panic!("{what}: {e}"));
        print!("{}", casa_core::render_explain(&doc, top));
    };
    let Some(docs) = capture_dir_docs(path, ".explain.json") else {
        println!("explain {path}:");
        render(path, &read_doc(Path::new(path)));
        return;
    };
    println!("explain {path}: {} captured document(s)", docs.len());
    for (stem, json) in &docs {
        println!("[{stem}]");
        render(stem, json);
    }
}

fn render_trace_cmd(path: &str) {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let events = parse_chrome_trace(&json);
    println!("span tree of {path} ({} events):", events.len());
    print!("{}", render_span_table(&events));
}

fn flight_cmd(path: &str) {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let (events, capacity, dropped) = parse_flight_dump(&json);
    println!(
        "flight buffer {path}: {} event(s), capacity {capacity}, {dropped} dropped",
        events.len()
    );
    print!("{}", render_flight_table(&events));
}

const USAGE: &str = "diag subcommands:\n\
    \x20 replay <file> [--divergence] [--report-out <path>]   replay a recorded .casa-session\n\
    \x20 tail <addr>                                          print the server request journal\n\
    \x20 post <addr> <body-file> [--req-id <id>] [--out <p>]  POST a /solve body\n\
    \x20 probe <addr> [--quick] [--expect <fam>]... [--expect-spans <name>] [--quit]\n\
    \x20                                                      validate a live telemetry server\n\
    \x20 flight <path>                                        render a flight-recorder dump\n\
    \x20 render-trace <path>                                  render a Chrome trace span tree\n\
    \x20 tree <path|dir> [--json]                             render captured B&B search trees\n\
    \x20 explain <path|dir> [--top <n>]                       render captured explain documents\n\
    \x20 (no subcommand)                                      workload calibration tables\n";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("replay") => return replay_cmd(&argv[1..]),
        Some("tail") => {
            let addr = argv.get(1).expect("usage: diag tail <addr>");
            return tail(addr);
        }
        Some("post") => {
            let addr = argv.get(1).expect("usage: diag post <addr> <body-file>");
            let body = argv.get(2).expect("usage: diag post <addr> <body-file>");
            return post_solve(addr, body);
        }
        Some("probe") => {
            let addr = argv.get(1).expect("usage: diag probe <addr> [--quick]");
            return probe(addr, argv.iter().any(|a| a == "--quick"));
        }
        Some("flight") => {
            return flight_cmd(argv.get(1).expect("usage: diag flight <path>"));
        }
        Some("render-trace") => {
            return render_trace_cmd(argv.get(1).expect("usage: diag render-trace <path>"));
        }
        Some("tree") => {
            return tree_cmd(
                argv.get(1).expect("usage: diag tree <path|dir> [--json]"),
                argv.iter().any(|a| a == "--json"),
            );
        }
        Some("explain") => {
            return explain_cmd(
                argv.get(1)
                    .expect("usage: diag explain <path|dir> [--top <n>]"),
            );
        }
        Some("help" | "--help" | "-h") => {
            print!("{USAGE}");
            return;
        }
        _ => {}
    }
    let cli = cli_obs();
    for spec in mediabench::all() {
        let name = spec.name.clone();
        let (cache_size, sizes) = paper_sizes(&name);
        let w = prepared(spec, 1, 2004);
        let code = w.program.code_size();
        // Hot set: blocks contributing the top 95% of fetches.
        let mut per_block: Vec<(u64, u32)> = w
            .program
            .blocks()
            .iter()
            .map(|b| (w.profile.fetches(&w.program, b.id()), b.size()))
            .collect();
        per_block.sort_by_key(|&(f, _)| std::cmp::Reverse(f));
        let total_fetches: u64 = per_block.iter().map(|&(f, _)| f).sum();
        let mut acc = 0u64;
        let mut hot_bytes = 0u32;
        for &(f, s) in &per_block {
            if acc as f64 >= 0.95 * total_fetches as f64 {
                break;
            }
            acc += f;
            hot_bytes += s;
        }
        // Per-function footprint and heat.
        for f in w.program.functions() {
            let bytes: u32 = f.blocks().iter().map(|&b| w.program.block(b).size()).sum();
            let fetches: u64 = f
                .blocks()
                .iter()
                .map(|&b| w.profile.fetches(&w.program, b))
                .sum();
            println!(
                "    fn {:<16} {:>6} B {:>10} fetches",
                f.name(),
                bytes,
                fetches
            );
        }
        let cfg = FlowConfig {
            cache: CacheConfig::direct_mapped(cache_size, LINE_SIZE),
            spm_size: sizes[0],
            allocator: AllocatorKind::None,
            tech: TechParams::default(),
            trace_cap: None,
        };
        let base = run_spm_flow(
            &w.program,
            &w.profile,
            &w.exec,
            &cfg,
            &FlowCtx::observed(&cli.obs),
        )
        .unwrap();
        let stats = base.final_sim.stats;
        println!(
            "{name}: code {code} B, hot(95%) {hot_bytes} B, cache {cache_size} B, pressure {:.2}",
            f64::from(hot_bytes) / f64::from(cache_size)
        );
        println!(
            "  fetches {}, miss rate {:.2}%, conflict edges {}, traces {}",
            stats.fetches,
            100.0 * stats.miss_rate(),
            base.conflict_graph.edge_count(),
            base.traces.len(),
        );
        let conflict_misses: u64 = (0..base.conflict_graph.len())
            .map(|i| base.conflict_graph.conflict_misses_of(i))
            .sum();
        println!(
            "  misses {} (conflict {}, cold {})",
            stats.cache_misses,
            conflict_misses,
            stats.cache_misses - conflict_misses
        );
        // Model fidelity: CASA's predicted energy vs. re-simulated.
        for &spm in &sizes {
            let cfg = FlowConfig {
                cache: CacheConfig::direct_mapped(cache_size, LINE_SIZE),
                spm_size: spm,
                allocator: AllocatorKind::CasaBb,
                tech: TechParams::default(),
                trace_cap: None,
            };
            let r = run_spm_flow(
                &w.program,
                &w.profile,
                &w.exec,
                &cfg,
                &FlowCtx::observed(&cli.obs),
            )
            .unwrap();
            println!(
                "  CASA @{spm:>5}: predicted {:>10.1} µJ, simulated {:>10.1} µJ, misses {} -> {}",
                r.allocation.predicted_energy.unwrap_or(0.0) / 1000.0,
                r.energy_uj(),
                stats.cache_misses,
                r.final_sim.stats.cache_misses,
            );
        }
    }
    if cli.obs.is_enabled() {
        println!("\nper-phase span tree:");
        print!("{}", render_span_table(&cli.obs.events()));
    }
    if let Some(path) = cli.finish() {
        println!("wrote Chrome trace to {}", path.display());
    }
}

//! casa-server — allocation as a service.
//!
//! A long-lived HTTP service that mounts `POST /solve` on the same
//! std-only listener that serves the live telemetry routes
//! (`/metrics`, `/healthz`, `/events`, `/quitquitquit`). Requests
//! carry either an inline conflict graph or a workload name plus an
//! allocator, capacity, and budget; replies are the deterministic
//! JSON of `casa_core::server`, with the cache disposition in the
//! `X-Casa-Cache` header (`hit` / `warm` / `miss`).
//!
//! Usage: `cargo run --release -p casa-bench --bin casa-server --
//!         [--listen 127.0.0.1:0] [--addr-file <path>]
//!         [--workers N] [--queue-cap N] [--cache-cap N]
//!         [--max-budget-nodes N] [--max-seconds N]
//!         [--flight-dump <path>]`
//!
//! Every response carries an `X-Casa-Request-Id` correlation header
//! (client-supplied or minted), each `/solve` reply's solve
//! attribution (cache outcome, gap, nodes, queue wait, worker shard)
//! lands in the request journal at `/requests.json` and the access
//! log — see the "Request observability" section of the README.
//! `--flight-dump` sets the sink a slow or degraded request writes a
//! flight dump to: the trace collector's newest events, including the
//! `serve.slow_request` instant that names the request and the
//! `server.request` spans that carry each request's ID.
//!
//! `--addr-file` writes the bound address (useful with port 0) once
//! the service is up — CI polls for the file, then points the load
//! generator at it. `--max-seconds` is a safety timeout: the server
//! exits on `/quitquitquit` or after that many seconds, whichever
//! comes first, so an orphaned CI server can never outlive its job.

use casa_bench::runner::cli_value;
use casa_core::flow::FlowConfig;
use casa_core::server::{
    AllocService, ParsedRequest, ServiceConfig, SolveJob, SubmitError, WorkloadRequest,
    DEFAULT_MAX_NODES,
};
use casa_core::{AllocatorKind, ConflictGraph};
use casa_energy::{EnergyTable, TechParams};
use casa_mem::cache::CacheConfig;
use casa_mem::{simulate, HierarchyConfig};
use casa_obs::{json_escape, Obs, Request, Response, Router, ServeOptions};
use casa_trace::trace::{form_traces, TraceConfig};
use casa_trace::Layout;
use casa_workloads::mediabench;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Trip-count scale ceiling for workload-form requests: graph
/// preparation runs on the connection thread, so an absurd scale must
/// not be able to pin it.
const MAX_SCALE: u64 = 16;

/// Resolved-workload memo: benchmark preparation (compile → walk →
/// trace → profile-simulate → conflict graph) costs orders of
/// magnitude more than most solves, and the result is a pure function
/// of the request's workload parameters.
struct WorkloadMemo {
    cache: Mutex<HashMap<String, Arc<(ConflictGraph, EnergyTable)>>>,
    obs: Obs,
}

impl WorkloadMemo {
    fn resolve(&self, w: &WorkloadRequest) -> Result<Arc<(ConflictGraph, EnergyTable)>, String> {
        if w.scale > MAX_SCALE {
            return Err(format!("workload.scale must be <= {MAX_SCALE}"));
        }
        let spec = mediabench::all()
            .into_iter()
            .find(|s| s.name == w.benchmark)
            .ok_or_else(|| format!("unknown benchmark {:?}", w.benchmark))?;
        let cache_cfg = w.cache.unwrap_or_else(|| {
            let (size, _) = casa_bench::experiments::paper_sizes(&w.benchmark);
            CacheConfig::direct_mapped(size, casa_bench::experiments::LINE_SIZE)
        });
        let key = format!(
            "{}:{}:{}:{}:{}:{}:{}",
            w.benchmark,
            w.scale,
            w.seed,
            cache_cfg.size,
            cache_cfg.line_size,
            cache_cfg.associativity,
            w.capacity,
        );
        if let Some(hit) = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.obs.add("server.workload_memo_hits_total", 1);
            return Ok(Arc::clone(hit));
        }
        let prepared = casa_bench::runner::prepared(spec, w.scale, w.seed);
        let flow = FlowConfig::new(cache_cfg, w.capacity, AllocatorKind::CasaBb);
        let traces = form_traces(
            &prepared.program,
            &prepared.profile,
            TraceConfig::new(flow.effective_trace_cap(), cache_cfg.line_size),
            &Obs::disabled(),
        );
        let layout = Layout::initial(&prepared.program, &traces);
        let hierarchy = HierarchyConfig::spm_system(cache_cfg, w.capacity);
        let sim = simulate(
            &prepared.program,
            &traces,
            &layout,
            &prepared.exec,
            &hierarchy,
        )
        .map_err(|e| format!("profiling simulation failed: {e}"))?;
        let graph = ConflictGraph::from_simulation(&traces, &sim);
        let table = EnergyTable::build(
            cache_cfg.size,
            cache_cfg.line_size,
            cache_cfg.associativity,
            w.capacity,
            None,
            &TechParams::default(),
        );
        let entry = Arc::new((graph, table));
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, Arc::clone(&entry));
        self.obs.add("server.workload_memo_misses_total", 1);
        Ok(entry)
    }
}

fn error_json(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json_escape(message))
}

fn solve_response(service: &AllocService, job: SolveJob, req_id: &str) -> Response {
    match service.submit_tagged(job, Some(req_id)) {
        Ok(reply) => Response::json(200, reply.body)
            .with_header("X-Casa-Cache", reply.cache.as_str())
            .with_solve(reply.attribution),
        Err(SubmitError::Overloaded) => Response::json(429, error_json("admission queue full")),
        Err(SubmitError::Closed) => Response::json(503, error_json("service shut down")),
    }
}

/// CI hook: with `CASA_SELFTEST_SLOW_REQ=<ms>` set, requests whose
/// correlation ID starts with `slow-` sleep that long before solving —
/// a deterministic way to drive the slow-request flight capture
/// (`CASA_SLOW_REQ_MS`) without making every request slow.
fn selftest_slow_req(req_id: &str) {
    if !req_id.starts_with("slow-") {
        return;
    }
    if let Some(ms) = std::env::var("CASA_SELFTEST_SLOW_REQ")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

fn handle_solve(service: &AllocService, memo: &WorkloadMemo, req: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::json(400, error_json("request body is not UTF-8"));
    };
    selftest_slow_req(&req.req_id);
    match casa_core::server::parse_request(body) {
        Ok(ParsedRequest::Graph(job)) => solve_response(service, job, &req.req_id),
        Ok(ParsedRequest::Workload(w)) => match memo.resolve(&w) {
            Ok(resolved) => {
                let (graph, table) = (&resolved.0, &resolved.1);
                solve_response(
                    service,
                    SolveJob {
                        graph: graph.clone(),
                        table: *table,
                        capacity: w.capacity,
                        allocator: w.allocator,
                        budget_nodes: w.budget_nodes,
                        budget_ms: w.budget_ms,
                        explain: w.explain,
                    },
                    &req.req_id,
                )
            }
            Err(e) => Response::json(400, error_json(&e)),
        },
        // Parse refusals carry their own structured 400 body — version
        // refusals include the `supported` list clients negotiate on.
        Err(e) => Response::json(400, e.http_body()),
    }
}

const HELP: &str = "casa-server: POST /solve with a JSON allocation request.\n\
    Request: {\"v\":1, \"graph\":{\"fetches\":[..],\"sizes\":[..],\"edges\":[[i,j,m],..]},\n\
    \x20         \"table\":{..} | \"cache\":{\"size\":..,\"line\":..,\"assoc\":..},\n\
    \x20         \"capacity\":N, \"allocator\":\"casa-bb\", \"budget\":{\"nodes\":N,\"ms\":N}}\n\
    or       {\"workload\":{\"benchmark\":\"adpcm\",\"scale\":1,\"seed\":42}, \"capacity\":N, ..}\n\
    \"v\" is the wire-schema version (absent = 1); unknown versions get a\n\
    structured 400 listing the supported ones.\n\
    CASA_SESSION_DIR=<dir> captures every solved request as <stem>.casa-session\n\
    and <stem>.report.json siblings named by its X-Casa-Request-Id (see\n\
    `diag replay`), plus <stem>.tree.json for tree-searching allocators.\n\
    \"explain\":true adds a <stem>.explain.json sibling (see `diag explain`).\n\
    Telemetry: /metrics /healthz /snapshot.json /events; /quitquitquit stops the server.\n";

fn flag_u64(name: &str, default: u64) -> u64 {
    cli_value(&format!("--{name}")).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--{name} wants an integer, got {v:?}"))
    })
}

fn main() {
    let listen = cli_value("--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let cfg = ServiceConfig {
        workers: flag_u64("workers", 2) as usize,
        queue_cap: flag_u64("queue-cap", 16) as usize,
        cache_cap: flag_u64("cache-cap", 256) as usize,
        max_nodes: flag_u64("max-budget-nodes", DEFAULT_MAX_NODES),
        session_dir: std::env::var("CASA_SESSION_DIR")
            .ok()
            .filter(|d| !d.is_empty())
            .map(Into::into),
    };
    let max_seconds = flag_u64("max-seconds", 600);

    let obs = Obs::enabled();
    if let Some(path) = cli_value("--flight-dump") {
        obs.set_flight_sink(Some(path.into()));
    }
    let service = Arc::new(AllocService::start(&cfg, &obs));
    let memo = Arc::new(WorkloadMemo {
        cache: Mutex::new(HashMap::new()),
        obs: obs.clone(),
    });
    let router: Router = {
        let service = Arc::clone(&service);
        let memo = Arc::clone(&memo);
        Arc::new(
            move |req: &Request| match (req.method.as_str(), req.path.as_str()) {
                ("POST", "/solve") => Some(handle_solve(&service, &memo, req)),
                ("GET", "/") => Some(Response::text(200, HELP)),
                _ => None,
            },
        )
    };

    let mut handle =
        casa_obs::serve::start_with(&obs, &listen, ServeOptions::default(), Some(router))
            .expect("bind casa-server listener");
    let addr = handle.local_addr();
    if let Some(path) = cli_value("--addr-file") {
        std::fs::write(&path, addr.to_string()).expect("write --addr-file");
    }
    println!("casa-server listening on http://{addr} (quit: POST /quitquitquit; safety timeout {max_seconds}s)");

    handle.wait_quit(Duration::from_secs(max_seconds));
    // Requests solve on their connection threads, so once the listener
    // has drained them every admitted request has its reply written.
    handle.shutdown();
    println!("casa-server: shut down cleanly");
}

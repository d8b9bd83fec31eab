//! Fixtures shared by the codec property suites: captured solves of
//! one small graph request, and the byte mutator their fuzz properties
//! apply to the captured documents.

use casa_core::{allocate_traced, parse_request, Capture, Captured, EnergyModel, ParsedRequest};
use casa_obs::Obs;

/// Solve one six-object graph request with `allocator` (a wire tag),
/// optionally under a node budget and with explain on, and capture it
/// the way casa-server captures a cache miss.
pub fn captured(allocator: &str, budget_nodes: Option<u64>, explain: bool) -> Captured {
    let budget = budget_nodes.map_or(String::new(), |n| format!(r#""budget":{{"nodes":{n}}},"#));
    let body = format!(
        r#"{{"allocator":"{allocator}",{budget}"cache":{{"size":64}},"capacity":48,"explain":{explain},"graph":{{"fetches":[900,800,300,650,120,40],"sizes":[16,16,16,32,16,8],"edges":[[0,1,500],[1,2,120],[2,3,5],[3,0,260],[4,1,90],[5,5,30]]}}}}"#
    );
    let Ok(ParsedRequest::Graph(job)) = parse_request(&body) else {
        panic!("fixture request refused: {body}");
    };
    let model = EnergyModel::new(&job.graph, &job.table);
    let capture = Capture::on();
    let out = allocate_traced(
        &model,
        job.capacity,
        job.allocator,
        &job.budget(),
        None,
        &Obs::disabled(),
        &capture.log,
        &capture.tree,
    );
    capture
        .finish(&job, &out, &model, Vec::new(), &Obs::disabled())
        .expect("capture is on")
}

/// The bytes an insertion draws from.
const JSON_TOKENS: &[u8] = b"0123456789\"[]{},:-.e";

/// Apply one kind of edit at each of `edits`' positions, after the
/// `/solve` body fuzz: kind 0 flips low bits of a byte (an ASCII byte
/// stays ASCII, so a text payload can get past a UTF-8 check), 1
/// deletes a byte, 2 truncates, and anything else inserts a JSON
/// token character.
pub fn mutate(bytes: &mut Vec<u8>, kind: u8, edits: &[(u32, u8)]) {
    for &(at, x) in edits {
        let len = bytes.len();
        let at = at as usize;
        match kind {
            0 if len > 0 => bytes[at % len] ^= 1 + x % 127,
            1 if len > 0 => {
                bytes.remove(at % len);
            }
            2 => bytes.truncate(at % (len + 1)),
            _ => bytes.insert(
                at % (len + 1),
                JSON_TOKENS[usize::from(x) % JSON_TOKENS.len()],
            ),
        }
    }
}

//! Output checks. Each returns `Err` with a description of the first
//! problem found; any `Err` makes the run report `"correct": false` and
//! exit non-zero.

use std::collections::BTreeMap;

use bmst_core::{audit_construction, PathConstraint};
use bmst_router::{Netlist, RouteReport};

/// Every routed tree passes the invariant auditor against the bound it
/// was routed under, and every net of the netlist is accounted for
/// exactly once (routed, or in the failure log).
pub fn audit_report(netlist: &Netlist, report: &RouteReport) -> Result<(), String> {
    let expected = netlist.nets.len() + netlist.rejected.len();
    let got = report.nets.len() + report.failures.len();
    if got != expected {
        return Err(format!(
            "report accounts for {got} nets, netlist has {expected}"
        ));
    }
    let by_name: BTreeMap<&str, &bmst_router::NamedNet> =
        netlist.nets.iter().map(|n| (n.name.as_str(), n)).collect();
    for routed in &report.nets {
        let named = by_name
            .get(routed.name.as_str())
            .ok_or_else(|| format!("report names unknown net {:?}", routed.name))?;
        let constraint = PathConstraint::from_eps(&named.net, routed.eps)
            .map_err(|e| format!("net {}: {e}", routed.name))?;
        audit_construction(&named.net, &routed.tree, Some(&constraint))
            .map_err(|v| format!("net {}: audit failed: {v}", routed.name))?;
    }
    Ok(())
}

/// One response line as the load generator saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The echoed request id.
    pub id: u64,
    /// `"ok"`, or the error kind (`"overloaded"`, `"internal"`, ...).
    pub kind: String,
    /// Whether the report came from the server's cache.
    pub cached: bool,
    /// The `report` object's text, for route responses.
    pub report: String,
}

/// Parses a response line by its fixed prefix (see
/// `bmst_serve::protocol::render_route_ok` and `render_error`).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let rest = line
        .strip_prefix("{\"id\":")
        .ok_or_else(|| format!("response without a leading id: {}", clip(line)))?;
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    let id: u64 = rest[..digits]
        .parse()
        .map_err(|_| format!("response with a non-numeric id: {}", clip(line)))?;
    let rest = &rest[digits..];
    if let Some(body) = rest.strip_prefix(",\"ok\":true,\"cached\":") {
        let (cached, report) = if let Some(r) = body.strip_prefix("true,\"report\":") {
            (true, r)
        } else if let Some(r) = body.strip_prefix("false,\"report\":") {
            (false, r)
        } else {
            return Err(format!("malformed route response: {}", clip(line)));
        };
        let report = report
            .strip_suffix('}')
            .ok_or_else(|| format!("unterminated route response: {}", clip(line)))?;
        return Ok(Response {
            id,
            kind: "ok".to_owned(),
            cached,
            report: report.to_owned(),
        });
    }
    let kind = rest
        .strip_prefix(",\"ok\":false,\"error\":{\"kind\":\"")
        .and_then(|r| r.split('"').next())
        .ok_or_else(|| format!("unrecognised response: {}", clip(line)))?;
    Ok(Response {
        id,
        kind: kind.to_owned(),
        cached: false,
        report: String::new(),
    })
}

fn clip(line: &str) -> &str {
    let end = line.char_indices().nth(120).map_or(line.len(), |(i, _)| i);
    &line[..end]
}

/// Every request id in `sent` got exactly one response, no response
/// names an id that was not sent, and none is `internal`.
pub fn check_responses(sent: &[u64], responses: &[Response]) -> Result<(), String> {
    let mut seen: BTreeMap<u64, usize> = sent.iter().map(|&id| (id, 0)).collect();
    for r in responses {
        if r.kind == "internal" {
            return Err(format!("request {} ended in an internal error", r.id));
        }
        match seen.get_mut(&r.id) {
            Some(n) => *n += 1,
            None => return Err(format!("response for unknown request id {}", r.id)),
        }
    }
    for (id, n) in seen {
        if n != 1 {
            return Err(format!(
                "request {id} got {n} responses, expected exactly 1"
            ));
        }
    }
    Ok(())
}

/// All responses to one request body (same netlist and knobs) carry the
/// same report bytes, whether served cold or from the cache.
/// `body_of` maps a request id to the index of its distinct body.
pub fn check_cache_parity(
    responses: &[Response],
    body_of: impl Fn(u64) -> usize,
) -> Result<(), String> {
    let mut first: BTreeMap<usize, &Response> = BTreeMap::new();
    for r in responses.iter().filter(|r| r.kind == "ok") {
        let prev = first.entry(body_of(r.id)).or_insert(r);
        if prev.report != r.report {
            return Err(format!(
                "requests {} (cached: {}) and {} (cached: {}) share a body but got different reports",
                prev.id, prev.cached, r.id, r.cached
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmst_router::RouterConfig;

    const DETOUR: &str =
        "net detour critical\n0 0\n10 0\n9 5\nend\nnet good relaxed\n2 2\n9 9\n30 4\nend\n";

    #[test]
    fn clean_report_passes_audit() {
        let netlist = Netlist::from_str_block(DETOUR).unwrap();
        let report = netlist.route(&RouterConfig::default());
        audit_report(&netlist, &report).unwrap();
    }

    #[test]
    fn corrupted_tree_fails_audit() {
        let netlist = Netlist::from_str_block(DETOUR).unwrap();
        let mut report = netlist.route(&RouterConfig::default());
        // The MST reaches (9,5) through (10,0): a path of 16 against the
        // critical net's bound of 15.4.
        report.nets[0].tree = bmst_core::mst_tree(&netlist.nets[0].net);
        let err = audit_report(&netlist, &report).unwrap_err();
        assert!(err.contains("detour"), "{err}");
    }

    #[test]
    fn dropped_net_fails_audit() {
        let netlist = Netlist::from_str_block(DETOUR).unwrap();
        let mut report = netlist.route(&RouterConfig::default());
        report.nets.pop();
        assert!(audit_report(&netlist, &report).is_err());
    }

    fn ok(id: u64, cached: bool, report: &str) -> Response {
        Response {
            id,
            kind: "ok".to_owned(),
            cached,
            report: report.to_owned(),
        }
    }

    #[test]
    fn parses_both_response_shapes() {
        let r = parse_response("{\"id\":7,\"ok\":true,\"cached\":true,\"report\":{\"nets\":[]}}")
            .unwrap();
        assert_eq!(r, ok(7, true, "{\"nets\":[]}"));
        let e = parse_response(
            "{\"id\":9,\"ok\":false,\"error\":{\"kind\":\"overloaded\",\"detail\":\"x\"}}",
        )
        .unwrap();
        assert_eq!((e.id, e.kind.as_str()), (9, "overloaded"));
        assert!(parse_response("{\"ok\":true}").is_err());
    }

    #[test]
    fn duplicated_response_fails() {
        let rs = vec![ok(1, false, "{}"), ok(2, false, "{}"), ok(2, false, "{}")];
        let err = check_responses(&[1, 2], &rs).unwrap_err();
        assert!(err.contains("request 2 got 2"), "{err}");
    }

    #[test]
    fn missing_unknown_and_internal_responses_fail() {
        assert!(check_responses(&[1, 2], &[ok(1, false, "{}")]).is_err());
        assert!(check_responses(&[1], &[ok(1, false, "{}"), ok(5, false, "{}")]).is_err());
        let mut internal = ok(1, false, "");
        internal.kind = "internal".to_owned();
        assert!(check_responses(&[1], &[internal]).is_err());
        check_responses(&[1, 2], &[ok(2, false, "{}"), ok(1, true, "{}")]).unwrap();
    }

    #[test]
    fn cached_body_must_match_cold_body() {
        let same = [ok(1, false, "{\"a\":1}"), ok(2, true, "{\"a\":1}")];
        check_cache_parity(&same, |_| 0).unwrap();
        let differ = [ok(1, false, "{\"a\":1}"), ok(2, true, "{\"a\":2}")];
        assert!(check_cache_parity(&differ, |_| 0).is_err());
        check_cache_parity(&differ, |id| id as usize).unwrap();
    }
}

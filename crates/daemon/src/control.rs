//! The daemon's control endpoint: routes over the workspace's one
//! hand-rolled HTTP listener ([`HttpServer`]), so `pccheckctl job` can
//! drive a running `pccheckd` remotely.
//!
//! Routes (all GET, all JSON):
//!
//! * `/jobs` — one status object per job (running, drained, queued).
//! * `/submit?name=<n>[&state_kb=..][&n=..][&weight=..][&budget_kb=..]`
//!   `[&iters=..][&interval=..][&pacing_us=..][&codec=1][&adaptive=..]`
//!   `[&period=..]` — submit a sim-backed job (`codec=1` requests the
//!   chunk codec, `adaptive=N` re-tunes every N checkpoints, `period=P`
//!   trains on a P-byte-tiled compressible state).
//! * `/drain?name=<n>` — stop and drain a job (or unqueue it).
//! * `/shutdown` — ask the daemon's serve loop to exit.

use std::net::SocketAddr;
use std::sync::Arc;

use pccheck_telemetry::HttpServer;
use pccheck_util::ByteSize;

use crate::service::{Daemon, JobSpec, JobStatus, SubmitOutcome};

/// JSON string escape for names that came in off the wire.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn status_json(s: &JobStatus) -> String {
    format!(
        "{{\"id\":{},\"name\":\"{}\",\"state\":\"{}\",\"concurrent\":{},\
         \"committed\":{},\"bytes_persisted\":{},\"qos_share\":{:.4},\
         \"last_iteration\":{},\"codec\":{}}}",
        s.id,
        json_escape(&s.name),
        s.state.name(),
        s.concurrent,
        s.committed,
        s.bytes_persisted,
        s.qos_share,
        s.last_iteration
            .map_or("null".to_string(), |i| i.to_string()),
        s.codec,
    )
}

/// Splits `path?query` and decodes the query into key/value pairs (no
/// percent-decoding — job names are restricted to URL-safe characters).
fn parse_query(target: &str) -> (&str, Vec<(&str, &str)>) {
    match target.split_once('?') {
        None => (target, Vec::new()),
        Some((path, query)) => (
            path,
            query
                .split('&')
                .filter_map(|kv| kv.split_once('='))
                .collect(),
        ),
    }
}

fn spec_from_query(params: &[(&str, &str)]) -> Result<JobSpec, String> {
    let get = |key: &str| params.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    let name = get("name").ok_or("missing required param `name`")?;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(format!("job name {name:?} must be [a-zA-Z0-9_-]+"));
    }
    let mut spec = JobSpec::sim(name);
    let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
        match get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad {key}={v:?}")),
        }
    };
    spec.state = ByteSize::from_kb(parse_u64("state_kb", spec.state.as_u64() / 1024)?);
    spec.storage_budget =
        ByteSize::from_kb(parse_u64("budget_kb", spec.storage_budget.as_u64() / 1024)?);
    spec.max_concurrent = parse_u64("n", spec.max_concurrent as u64)? as usize;
    spec.weight = parse_u64("weight", spec.weight)?;
    spec.iterations = parse_u64("iters", spec.iterations)?;
    spec.interval = parse_u64("interval", spec.interval)?;
    spec.pacing = std::time::Duration::from_micros(parse_u64("pacing_us", 0)?);
    spec.codec = parse_u64("codec", 0)? != 0;
    spec.adaptive_interval = parse_u64("adaptive", 0)?;
    spec.compress_period = parse_u64("period", 0)? as usize;
    Ok(spec)
}

fn handle(daemon: &Daemon, target: &str) -> (String, String) {
    let (path, params) = parse_query(target);
    match path {
        "/jobs" => {
            let rows: Vec<String> = daemon.jobs().iter().map(status_json).collect();
            ("200 OK".into(), format!("[{}]\n", rows.join(",")))
        }
        "/submit" => {
            let submitted = spec_from_query(&params)
                .map_err(|e| e.to_string())
                .and_then(|spec| daemon.submit(spec).map_err(|e| e.to_string()));
            match submitted {
                Ok(SubmitOutcome::Admitted(status)) => ("200 OK".into(), status_json(&status)),
                Ok(SubmitOutcome::Queued(reason)) => (
                    "200 OK".into(),
                    format!(
                        "{{\"state\":\"queued\",\"reason\":\"{}\"}}\n",
                        json_escape(&reason)
                    ),
                ),
                Err(msg) => (
                    "400 Bad Request".into(),
                    format!("{{\"error\":\"{}\"}}\n", json_escape(&msg)),
                ),
            }
        }
        "/drain" => {
            let Some(name) = params.iter().find(|(k, _)| *k == "name").map(|(_, v)| *v) else {
                return (
                    "400 Bad Request".into(),
                    "{\"error\":\"missing required param `name`\"}\n".into(),
                );
            };
            match daemon.drain(name) {
                Ok(()) => (
                    "200 OK".into(),
                    format!("{{\"drained\":\"{}\"}}\n", json_escape(name)),
                ),
                Err(e) => (
                    "400 Bad Request".into(),
                    format!("{{\"error\":\"{}\"}}\n", json_escape(&e.to_string())),
                ),
            }
        }
        "/shutdown" => {
            daemon.request_quit();
            ("200 OK".into(), "{\"shutting_down\":true}\n".into())
        }
        _ => ("404 Not Found".into(), "{\"error\":\"try /jobs\"}\n".into()),
    }
}

/// The daemon's HTTP control listener (one accept loop on a background
/// thread; joined on drop, so a restarted daemon can rebind its port).
#[derive(Debug)]
pub struct ControlServer(HttpServer);

impl ControlServer {
    /// Binds `addr` and serves `daemon`'s control routes.
    ///
    /// # Errors
    ///
    /// Returns the bind error as a string.
    pub fn bind(addr: &str, daemon: Arc<Daemon>) -> Result<Self, String> {
        HttpServer::bind(addr, move |target| {
            let (status, body) = handle(&daemon, target);
            (status, "application/json", body)
        })
        .map(ControlServer)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DaemonConfig;
    use pccheck_telemetry::http_get;

    #[test]
    fn control_routes_submit_list_drain() {
        let daemon = Arc::new(Daemon::new(DaemonConfig::sim_default()).unwrap());
        let server = ControlServer::bind("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.addr();
        let body = http_get(addr, "/submit?name=web-a&iters=6&interval=2").unwrap();
        assert!(body.contains("\"name\":\"web-a\""), "{body}");
        assert!(body.contains("\"state\":\"running\""), "{body}");
        let list = http_get(addr, "/jobs").unwrap();
        assert!(list.starts_with('['), "{list}");
        assert!(list.contains("web-a"));
        daemon.join_all().unwrap();
        let body = http_get(addr, "/drain?name=web-a").unwrap();
        assert!(body.contains("\"drained\":\"web-a\""), "{body}");
        // Errors come back as HTTP 400 (http_get surfaces the status).
        assert!(http_get(addr, "/drain?name=ghost").is_err());
        assert!(http_get(addr, "/submit?name=bad%20name").is_err());
        assert!(http_get(addr, "/nope").is_err());
        server.shutdown();
    }

    #[test]
    fn spec_query_parsing_round_trips() {
        let params = vec![
            ("name", "a"),
            ("state_kb", "32"),
            ("n", "3"),
            ("weight", "4"),
            ("budget_kb", "512"),
            ("iters", "9"),
            ("interval", "3"),
            ("codec", "1"),
            ("adaptive", "8"),
            ("period", "64"),
        ];
        let spec = spec_from_query(&params).unwrap();
        assert_eq!(spec.state, ByteSize::from_kb(32));
        assert_eq!(spec.max_concurrent, 3);
        assert_eq!(spec.weight, 4);
        assert_eq!(spec.storage_budget, ByteSize::from_kb(512));
        assert_eq!(spec.iterations, 9);
        assert_eq!(spec.interval, 3);
        assert!(spec.codec);
        assert_eq!(spec.adaptive_interval, 8);
        assert_eq!(spec.compress_period, 64);
        assert!(!spec_from_query(&[("name", "a")]).unwrap().codec);
        assert!(spec_from_query(&[("name", "bad name")]).is_err());
        assert!(spec_from_query(&[("state_kb", "1")]).is_err());
        assert!(spec_from_query(&[("name", "a"), ("n", "x")]).is_err());
    }
}

//! The JSON-lines wire protocol.
//!
//! One request per input line, one envelope per output line, streamed back
//! **out of order** as simulations finish (a cache hit on line 500 is not
//! stuck behind a cold miss on line 3).  Envelopes carry the request id so
//! clients can reorder.
//!
//! Input lines are either a bare [`SimRequest`] JSON object (the id defaults
//! to the 1-based line number), an `{"id": …, "request": {…}}` wrapper, a
//! **family request** — `{"family": "<hex>", "bindings": {…}, "memory": …,
//! "backend": …}` referencing a registered kernel family instead of
//! re-sending its source — or a control line:
//!
//! * `{"cmd": "stats"}` — emit a `{"serve_stats": {…}}` line immediately;
//! * `{"cmd": "register_family", "name": …, "code": …}` — register a
//!   parametric kernel family; replies `{"registered": {…}}` with the
//!   family's hex address and parameter names;
//! * `{"cmd": "families"}` — emit a `{"families": […]}` line with
//!   per-family counters;
//! * `{"cmd": "shutdown"}` — drain in-flight work and stop reading.
//!
//! Output lines are `{"id", "served", "cached", "serve_ns", "report"}` on
//! success (`served` is a [`Served::label`], `cached` is true for cache hits,
//! `serve_ns` is this submission's wall time including queueing) or
//! `{"id", "error"}` on parse/simulation failure.  An envelope whose report
//! was extrapolated rather than fully simulated — an explicitly sampled
//! request, or an exact request degraded by the server's access budget
//! ([`crate::ServeConfig::exact_budget`]) — additionally carries
//! `"approx": true`, and the report's `approx` object holds the sampled
//! fraction and per-level error bounds.  With [`WireOptions::debug_hash`]
//! enabled, success envelopes also carry the request's `canonical_hash`
//! (hex), so clients can verify that two spellings of one kernel really
//! share a cache address.  End of input (or a shutdown line) flushes a
//! final `{"serve_stats": {…}}` summary whose `per_family` array surfaces
//! the per-family counters (requests, hits, instances) without a separate
//! `{"cmd": "families"}` round trip.

use crate::{ServeStats, Served, SimService};
use engine::{Backend, MemoryConfig, SimRequest};
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, Write};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Knobs of [`serve_lines_with`] that shape the output stream without
/// changing what is simulated.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireOptions {
    /// Include each request's canonical hash (hex) in success envelopes.
    pub debug_hash: bool,
}

/// What one input line asked for.
enum Line {
    Request {
        id: Value,
        request: SimRequest,
    },
    FamilyRequest {
        id: Value,
        family: String,
        bindings: Vec<(String, i64)>,
        memory: MemoryConfig,
        backend: Backend,
    },
    RegisterFamily {
        name: String,
        code: String,
    },
    Families,
    Stats,
    Shutdown,
}

fn parse_line(line: &str, number: u64) -> Result<Line, (Value, String)> {
    let default_id = Value::UInt(number);
    let value: Value = match serde_json::from_str(line) {
        Ok(value) => value,
        Err(error) => return Err((default_id, format!("invalid JSON: {error}"))),
    };
    if let Some(cmd) = value.get("cmd").and_then(Value::as_str) {
        return match cmd {
            "stats" => Ok(Line::Stats),
            "families" => Ok(Line::Families),
            "register_family" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("family")
                    .to_string();
                let code = value
                    .get("code")
                    .and_then(Value::as_str)
                    .ok_or_else(|| {
                        (
                            default_id.clone(),
                            "register_family is missing `code`".to_string(),
                        )
                    })?
                    .to_string();
                Ok(Line::RegisterFamily { name, code })
            }
            "shutdown" => Ok(Line::Shutdown),
            other => Err((default_id, format!("unknown command `{other}`"))),
        };
    }
    let (id, request_value) = match value.get("request") {
        Some(request) => (value.get("id").cloned().unwrap_or(default_id), request),
        None => (default_id, &value),
    };
    if request_value.get("family").is_some() {
        return parse_family_request(id, request_value);
    }
    match SimRequest::deserialize_value(request_value) {
        Ok(request) => Ok(Line::Request { id, request }),
        Err(error) => Err((id, error)),
    }
}

fn parse_family_request(id: Value, value: &Value) -> Result<Line, (Value, String)> {
    let fail = |message: String, id: &Value| (id.clone(), message);
    let family = value
        .get("family")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("`family` must be a hex family address".to_string(), &id))?
        .to_string();
    let bindings = match value.get("bindings") {
        Some(Value::Object(entries)) => {
            let mut bindings = Vec::with_capacity(entries.len());
            for (param, bound) in entries {
                let bound = bound.as_i64().ok_or_else(|| {
                    fail(
                        format!("binding for parameter `{param}` must be an integer"),
                        &id,
                    )
                })?;
                bindings.push((param.clone(), bound));
            }
            bindings
        }
        Some(other) => {
            return Err(fail(
                format!("`bindings` must be an object, got {other:?}"),
                &id,
            ))
        }
        None => Vec::new(),
    };
    let memory = value
        .get("memory")
        .ok_or_else(|| fail("family request is missing `memory`".to_string(), &id))
        .and_then(|memory| MemoryConfig::deserialize_value(memory).map_err(|e| fail(e, &id)))?;
    let backend = value
        .get("backend")
        .ok_or_else(|| fail("family request is missing `backend`".to_string(), &id))
        .and_then(|backend| Backend::deserialize_value(backend).map_err(|e| fail(e, &id)))?;
    Ok(Line::FamilyRequest {
        id,
        family,
        bindings,
        memory,
        backend,
    })
}

fn write_line<W: Write>(writer: &Mutex<W>, value: &Value) {
    let text = serde_json::to_string(value).expect("values render");
    let mut writer = writer.lock().expect("wire writer not poisoned");
    // A dead client is not the server's problem; drop the line.
    let _ = writeln!(writer, "{text}");
    let _ = writer.flush();
}

fn error_envelope(id: Value, message: String) -> Value {
    Value::Object(vec![
        ("id".to_string(), id),
        ("error".to_string(), Value::Str(message)),
    ])
}

/// The `{"serve_stats": …}` summary line: the flat [`ServeStats`] counters
/// plus a `per_family` array, so shutdown trailers surface the family-tier
/// counters without a separate `{"cmd": "families"}` round trip.
fn stats_line(service: &SimService, stats: &ServeStats) -> Value {
    let mut fields = match stats.serialize_value() {
        Value::Object(fields) => fields,
        other => return Value::Object(vec![("serve_stats".to_string(), other)]),
    };
    let families = service
        .family_stats()
        .iter()
        .map(Serialize::serialize_value)
        .collect();
    fields.push(("per_family".to_string(), Value::Array(families)));
    Value::Object(vec![("serve_stats".to_string(), Value::Object(fields))])
}

/// Answers a line the service never saw with its error envelope and counts
/// it in [`ServeStats::rejected`](crate::ServeStats::rejected).
fn reject<W: Write>(service: &SimService, writer: &Mutex<W>, envelope: Value) {
    service.rejected.fetch_add(1, Ordering::SeqCst);
    write_line(writer, &envelope);
}

/// Enqueues one request on the pool; its envelope streams out when it
/// finishes.  The job holds a clone of `done` until its envelope is
/// written, so the channel disconnects once every job has replied.
fn spawn_request<W>(
    service: &Arc<SimService>,
    writer: &Arc<Mutex<W>>,
    done: &mpsc::Sender<()>,
    options: WireOptions,
    id: Value,
    request: SimRequest,
) where
    W: Write + Send + 'static,
{
    let (job_service, writer, done) = (service.clone(), writer.clone(), done.clone());
    let arrived = Instant::now();
    service.pool().spawn(move || {
        let queue_ns = arrived.elapsed().as_nanos() as u64;
        let envelope = match job_service.submit_queued(&request, Some(queue_ns)) {
            Ok((report, served)) => {
                let mut fields = vec![
                    ("id".to_string(), id),
                    ("served".to_string(), Value::Str(served.label().to_string())),
                    (
                        "cached".to_string(),
                        Value::Bool(served == Served::CacheHit),
                    ),
                    (
                        "serve_ns".to_string(),
                        Value::UInt(arrived.elapsed().as_nanos() as u64),
                    ),
                ];
                // Extrapolated counts are flagged at the envelope level so
                // clients need not dig into the report to notice a
                // degraded (or explicitly sampled) answer.  A sampled run
                // that covered everything is exact and is not flagged.
                if report.approx.as_ref().is_some_and(|a| !a.is_exact()) {
                    fields.push(("approx".to_string(), Value::Bool(true)));
                }
                if options.debug_hash {
                    fields.push((
                        "canonical_hash".to_string(),
                        Value::Str(request.canonical_hash().to_string()),
                    ));
                }
                fields.push(("report".to_string(), report.serialize_value()));
                Value::Object(fields)
            }
            Err(error) => error_envelope(id, error.to_string()),
        };
        write_line(&writer, &envelope);
        drop(done);
    });
}

/// [`serve_lines_with`] using the default [`WireOptions`].
///
/// # Errors
///
/// Propagates read errors on the input stream; output errors are ignored
/// (a client that hangs up mid-stream does not kill the server).
pub fn serve_lines<W>(
    service: &Arc<SimService>,
    reader: impl BufRead,
    writer: W,
) -> std::io::Result<(ServeStats, bool)>
where
    W: Write + Send + 'static,
{
    serve_lines_with(service, reader, writer, WireOptions::default())
}

/// Serves JSON-lines requests from `reader`, streaming envelopes to
/// `writer` as they finish, until end of input or a shutdown line.  Returns
/// the final stats snapshot (also written as the last output line) and
/// whether an explicit shutdown was requested — a TCP server keeps
/// accepting connections after a mere end-of-stream, but stops on
/// `{"cmd": "shutdown"}`.
///
/// # Errors
///
/// Propagates read errors on the input stream; output errors are ignored
/// (a client that hangs up mid-stream does not kill the server).
pub fn serve_lines_with<W>(
    service: &Arc<SimService>,
    reader: impl BufRead,
    writer: W,
    options: WireOptions,
) -> std::io::Result<(ServeStats, bool)>
where
    W: Write + Send + 'static,
{
    let writer = Arc::new(Mutex::new(writer));
    let (done, drained) = mpsc::channel::<()>();
    let mut shutdown = false;
    for (index, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line, index as u64 + 1) {
            Ok(Line::Request { id, request }) => {
                spawn_request(service, &writer, &done, options, id, request);
            }
            Ok(Line::FamilyRequest {
                id,
                family,
                bindings,
                memory,
                backend,
            }) => match service.family_kernel(&family, &bindings) {
                Ok(kernel) => {
                    let request = SimRequest::new(kernel, memory, backend);
                    spawn_request(service, &writer, &done, options, id, request);
                }
                Err(message) => reject(service, &writer, error_envelope(id, message)),
            },
            Ok(Line::RegisterFamily { name, code }) => {
                match service.register_family(&name, &code) {
                    Ok(stats) => write_line(
                        &writer,
                        &Value::Object(vec![("registered".to_string(), stats.serialize_value())]),
                    ),
                    Err(message) => reject(
                        service,
                        &writer,
                        error_envelope(Value::UInt(index as u64 + 1), message),
                    ),
                }
            }
            Ok(Line::Families) => {
                let families = service
                    .family_stats()
                    .iter()
                    .map(Serialize::serialize_value)
                    .collect();
                write_line(
                    &writer,
                    &Value::Object(vec![("families".to_string(), Value::Array(families))]),
                );
            }
            Ok(Line::Stats) => {
                write_line(&writer, &stats_line(service, &service.stats()));
            }
            Ok(Line::Shutdown) => {
                shutdown = true;
                break;
            }
            Err((id, message)) => reject(service, &writer, error_envelope(id, message)),
        }
    }
    // Every queued line job holds a sender until its envelope is written;
    // none sends, so receiving returns once the last job has replied.
    drop(done);
    while drained.recv().is_ok() {}
    let stats = service.stats();
    write_line(&writer, &stats_line(service, &stats));
    Ok((stats, shutdown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use engine::Engine;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::io::Cursor;

    const KERNEL: &str = "double A[32]; for (i = 0; i < 32; i++) A[i] = A[i];";

    fn request_line(id: u64) -> String {
        format!(
            r#"{{"id":{id},"request":{{"kernel":{{"type":"source","name":"k","code":"{KERNEL}"}},"memory":{{"levels":[{{"sets":1,"assoc":8,"line_size":8,"policy":"lru"}}]}},"backend":"warping"}}}}"#
        )
    }

    /// A shared Vec<u8> sink the test can read back after serving.
    #[derive(Clone)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("sink").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn lines_of(sink: &Sink) -> Vec<Value> {
        let bytes = sink.0.lock().expect("sink").clone();
        String::from_utf8(bytes)
            .expect("utf-8 output")
            .lines()
            .map(|line| serde_json::from_str(line).expect("every output line is JSON"))
            .collect()
    }

    #[test]
    fn duplicate_lines_hit_the_cache_and_stats_trail() {
        let service = Arc::new(SimService::new(ServeConfig {
            workers: 2,
            cache_capacity: 64,
            exact_budget: None,
            warm_paths: true,
        }));
        let input = format!(
            "{}\n{}\n{}\n",
            request_line(1),
            request_line(2),
            request_line(3)
        );
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let (stats, shutdown) =
            serve_lines(&service, Cursor::new(input), sink.clone()).expect("serving succeeds");
        assert!(!shutdown);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.simulated, 1);
        assert_eq!(stats.cache_hits + stats.coalesced, 2);

        let lines = lines_of(&sink);
        assert_eq!(lines.len(), 4, "three envelopes plus the stats trailer");
        assert!(lines[3].get("serve_stats").is_some());
        let mut reports = Vec::new();
        for envelope in &lines[..3] {
            let id = envelope.get("id").and_then(Value::as_u64).expect("id");
            assert!((1..=3).contains(&id));
            assert!(
                envelope.get("canonical_hash").is_none(),
                "hashes are debug-only"
            );
            let report = envelope.get("report").expect("success envelope");
            reports.push(serde_json::to_string(report).expect("renders"));
        }
        // Dedup/caching must not change the payload: all three reports are
        // byte-identical.
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn bad_lines_get_error_envelopes_and_shutdown_stops_reading() {
        let service = Arc::new(SimService::new(ServeConfig {
            workers: 1,
            cache_capacity: 4,
            exact_budget: None,
            warm_paths: true,
        }));
        let input = format!(
            "not json\n{{\"cmd\":\"stats\"}}\n{{\"cmd\":\"shutdown\"}}\n{}\n",
            request_line(9)
        );
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let (stats, shutdown) =
            serve_lines(&service, Cursor::new(input), sink.clone()).expect("serving succeeds");
        assert!(shutdown);
        assert_eq!(stats.requests, 0, "the line after shutdown is never read");

        let lines = lines_of(&sink);
        assert_eq!(
            lines.len(),
            3,
            "error envelope, stats line, final stats line"
        );
        assert!(lines[0]
            .get("error")
            .and_then(Value::as_str)
            .expect("parse error envelope")
            .contains("invalid JSON"));
        assert_eq!(lines[0].get("id").and_then(Value::as_u64), Some(1));
        assert!(lines[1].get("serve_stats").is_some());
        assert!(lines[2].get("serve_stats").is_some());
    }

    #[test]
    fn rejected_lines_are_counted_apart_from_requests_and_errors() {
        let service = Arc::new(SimService::with_engine(
            Engine::new().with_threads(1),
            ServeConfig {
                workers: 1,
                cache_capacity: 4,
                exact_budget: None,
                warm_paths: true,
            },
        ));
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let input = format!("{{not json\n{}\n", request_line(1));
        let (stats, _) =
            serve_lines(&service, Cursor::new(input), sink.clone()).expect("serving succeeds");
        assert_eq!(
            (stats.rejected, stats.requests, stats.errors),
            (1, 1, 0),
            "{stats:?}"
        );
        let trailer = lines_of(&sink).pop().expect("a trailer");
        let trailer = trailer.get("serve_stats").expect("stats trailer");
        assert_eq!(trailer.get("rejected").and_then(Value::as_u64), Some(1));
        assert_eq!(trailer.get("requests").and_then(Value::as_u64), Some(1));
        assert_eq!(trailer.get("errors").and_then(Value::as_u64), Some(0));

        // An unknown family and a template that does not parse are rejected
        // too, and never reach the request counters.
        let unknown = format!(
            r#"{{"id":2,"request":{{"family":"{}","bindings":{{"N":4}},"memory":{{"levels":[{{"sets":1,"assoc":8,"line_size":8,"policy":"lru"}}]}},"backend":"classic"}}}}"#,
            "0".repeat(16)
        );
        let bad_template = r#"{"cmd":"register_family","name":"bad","code":"for ("}"#;
        let input = format!("{unknown}\n{bad_template}\n");
        let (stats, _) = serve_lines(&service, Cursor::new(input), Sink(Arc::default()))
            .expect("serving succeeds");
        assert_eq!(
            (stats.rejected, stats.requests, stats.errors),
            (3, 1, 0),
            "{stats:?}"
        );
    }

    #[test]
    fn deeply_nested_json_is_rejected_and_serving_continues() {
        let service = Arc::new(SimService::new(ServeConfig {
            workers: 1,
            cache_capacity: 4,
            exact_budget: None,
            warm_paths: true,
        }));
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let input = format!("{}\n{}\n", "[".repeat(50_000), request_line(2));
        let (stats, _) =
            serve_lines(&service, Cursor::new(input), sink.clone()).expect("serving succeeds");
        assert_eq!((stats.rejected, stats.requests), (1, 1), "{stats:?}");
        let lines = lines_of(&sink);
        assert_eq!(lines.len(), 3, "two replies plus the stats trailer");
        let error = lines[0]
            .get("error")
            .and_then(Value::as_str)
            .expect("error envelope");
        assert!(error.contains("recursion limit"), "{error}");
        assert_eq!(lines[0].get("id").and_then(Value::as_u64), Some(1));
        assert_eq!(lines[1].get("id").and_then(Value::as_u64), Some(2));
        assert!(
            lines[1].get("report").is_some(),
            "the next line is answered"
        );
        let trailer = lines[2].get("serve_stats").expect("stats trailer");
        assert_eq!(trailer.get("rejected").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn families_register_resolve_and_report_debug_hashes() {
        let service = Arc::new(SimService::new(ServeConfig {
            workers: 2,
            cache_capacity: 64,
            exact_budget: None,
            warm_paths: true,
        }));
        let template = "param N; double A[N]; for (i = 0; i < N; i++) A[i] = A[i];";
        let register = format!(r#"{{"cmd":"register_family","name":"scan","code":"{template}"}}"#);

        // Register, then read back the family address from the reply.
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        serve_lines(&service, Cursor::new(format!("{register}\n")), sink.clone())
            .expect("registration succeeds");
        let registered = lines_of(&sink)[0]
            .get("registered")
            .cloned()
            .expect("registration envelope");
        let family = registered
            .get("family")
            .and_then(Value::as_str)
            .expect("family address")
            .to_string();
        assert_eq!(family.len(), 32);

        // A family request and the equivalent constant-source request share
        // one cache address, proven by the debug-hash envelopes.
        let memory = r#"{"levels":[{"sets":1,"assoc":8,"line_size":8,"policy":"lru"}]}"#;
        let by_family = format!(
            r#"{{"id":1,"request":{{"family":"{family}","bindings":{{"N":32}},"memory":{memory},"backend":"warping"}}}}"#
        );
        let input = format!("{}\n{by_family}\n", request_line(7));
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let (stats, _) = serve_lines_with(
            &service,
            Cursor::new(input),
            sink.clone(),
            WireOptions { debug_hash: true },
        )
        .expect("serving succeeds");
        let lines = lines_of(&sink);
        let hashes: Vec<&str> = lines[..2]
            .iter()
            .map(|envelope| {
                envelope
                    .get("canonical_hash")
                    .and_then(Value::as_str)
                    .expect("debug hash present")
            })
            .collect();
        assert_eq!(hashes[0], hashes[1], "one instance, one address");
        assert_eq!(stats.family_requests, 1);
        assert_eq!(stats.families, 1);

        // Unknown family addresses get a clear error envelope.
        let bad = format!(
            r#"{{"id":9,"request":{{"family":"{0:032x}","bindings":{{}},"memory":{memory},"backend":"warping"}}}}"#,
            0xdead_beefu128
        );
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        serve_lines(&service, Cursor::new(format!("{bad}\n")), sink.clone())
            .expect("serving succeeds");
        assert!(lines_of(&sink)[0]
            .get("error")
            .and_then(Value::as_str)
            .expect("error envelope")
            .contains("unknown family"));
    }

    #[test]
    fn families_command_reports_per_family_counters() {
        let service = Arc::new(SimService::new(ServeConfig {
            workers: 1,
            cache_capacity: 16,
            exact_budget: None,
            warm_paths: true,
        }));
        let template = "param N; double A[N]; for (i = 0; i < N; i++) A[i] = A[i];";
        let register = format!(r#"{{"cmd":"register_family","name":"scan","code":"{template}"}}"#);
        let memory = r#"{"levels":[{"sets":1,"assoc":8,"line_size":8,"policy":"lru"}]}"#;
        let request = |id: u64, n: u64| {
            format!(
                r#"{{"id":{id},"request":{{"family":"FAMILY","bindings":{{"N":{n}}},"memory":{memory},"backend":"warping"}}}}"#
            )
        };

        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        serve_lines(&service, Cursor::new(format!("{register}\n")), sink.clone())
            .expect("registration succeeds");
        let family = lines_of(&sink)[0]
            .get("registered")
            .and_then(|r| r.get("family"))
            .and_then(Value::as_str)
            .expect("family address")
            .to_string();

        // Two instances, the second submitted twice: one family hit.
        let input = format!(
            "{}\n{}\n{}\n",
            request(1, 16).replace("FAMILY", &family),
            request(2, 32).replace("FAMILY", &family),
            request(3, 32).replace("FAMILY", &family),
        );
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let (stats, _) =
            serve_lines(&service, Cursor::new(input), sink.clone()).expect("serving succeeds");
        assert_eq!(stats.family_requests, 3);
        assert_eq!(
            stats.family_hits + stats.coalesced,
            1,
            "the repeat either hit the cache or coalesced"
        );
        // The per-family counters are drained by now; ask for them on a
        // fresh connection.
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        serve_lines(
            &service,
            Cursor::new("{\"cmd\":\"families\"}\n"),
            sink.clone(),
        )
        .expect("serving succeeds");
        let families = lines_of(&sink)
            .iter()
            .find_map(|line| line.get("families").cloned())
            .expect("families line");
        match families {
            Value::Array(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].get("name").and_then(Value::as_str), Some("scan"));
                assert_eq!(entries[0].get("requests").and_then(Value::as_u64), Some(3));
                assert_eq!(entries[0].get("instances").and_then(Value::as_u64), Some(2));
            }
            other => panic!("families must be an array, got {other:?}"),
        }
    }

    #[test]
    fn stats_trailer_surfaces_per_family_counters() {
        let service = Arc::new(SimService::new(ServeConfig {
            workers: 1,
            cache_capacity: 16,
            exact_budget: None,
            warm_paths: true,
        }));
        let template = "param N; double A[N]; for (i = 0; i < N; i++) A[i] = A[i];";
        let register = format!(r#"{{"cmd":"register_family","name":"scan","code":"{template}"}}"#);
        let memory = r#"{"levels":[{"sets":1,"assoc":8,"line_size":8,"policy":"lru"}]}"#;

        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        serve_lines(&service, Cursor::new(format!("{register}\n")), sink.clone())
            .expect("registration succeeds");
        let family = lines_of(&sink)[0]
            .get("registered")
            .and_then(|r| r.get("family"))
            .and_then(Value::as_str)
            .expect("family address")
            .to_string();

        let input = format!(
            r#"{{"id":1,"request":{{"family":"{family}","bindings":{{"N":24}},"memory":{memory},"backend":"warping"}}}}"#
        );
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        serve_lines(&service, Cursor::new(format!("{input}\n")), sink.clone())
            .expect("serving succeeds");
        let lines = lines_of(&sink);
        let trailer = lines
            .last()
            .and_then(|line| line.get("serve_stats").cloned())
            .expect("stats trailer");
        // The flat counters are still there...
        assert_eq!(
            trailer.get("family_requests").and_then(Value::as_u64),
            Some(1)
        );
        // ...and the per-family breakdown rides along, no `families`
        // command needed.
        match trailer
            .get("per_family")
            .expect("per_family in the trailer")
        {
            Value::Array(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].get("name").and_then(Value::as_str), Some("scan"));
                assert_eq!(entries[0].get("requests").and_then(Value::as_u64), Some(1));
            }
            other => panic!("per_family must be an array, got {other:?}"),
        }
    }

    #[test]
    fn over_budget_requests_are_served_degraded_and_marked_approx() {
        let service = Arc::new(SimService::new(ServeConfig {
            workers: 1,
            cache_capacity: 16,
            exact_budget: Some(100),
            warm_paths: true,
        }));
        let big = "double A[4096]; for (i = 0; i < 4096; i++) A[i] = A[i];";
        let line = format!(
            r#"{{"id":1,"request":{{"kernel":{{"type":"source","name":"big","code":"{big}"}},"memory":{{"levels":[{{"sets":1,"assoc":8,"line_size":8,"policy":"lru"}}]}},"backend":"classic"}}}}"#
        );
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let (stats, _) = serve_lines(&service, Cursor::new(format!("{line}\n")), sink.clone())
            .expect("serving succeeds");
        assert_eq!(stats.degraded, 1);

        let lines = lines_of(&sink);
        let envelope = &lines[0];
        assert_eq!(
            envelope.get("approx").and_then(|v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(true),
            "degraded envelopes are flagged at the top level"
        );
        let report = envelope.get("report").expect("success envelope");
        assert_eq!(
            report.get("backend").and_then(Value::as_str),
            Some("sampled"),
            "the oversized classic request ran on the sampling backend"
        );
        let approx = report
            .get("approx")
            .expect("sampled reports carry approx stats");
        assert!(approx.get("sampled_fraction").is_some());
        assert!(approx.get("per_level_error_bound").is_some());
        // The trailer counts the degradation.
        assert_eq!(
            lines
                .last()
                .and_then(|line| line.get("serve_stats"))
                .and_then(|stats| stats.get("degraded"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    fn copy_request(id: u64, level: &str) -> String {
        format!(
            r#"{{"id":{id},"request":{{"kernel":{{"type":"source","name":"copy","code":"double A[64]; for (i = 0; i < 64; i++) A[i] = A[i];"}},"memory":{{"levels":[{level}]}},"backend":"classic"}}}}"#
        )
    }

    #[test]
    fn unsupported_geometries_get_error_envelopes_and_serving_continues() {
        let service = Arc::new(SimService::new(ServeConfig {
            workers: 1,
            cache_capacity: 8,
            exact_budget: None,
            warm_paths: true,
        }));
        let input = [
            copy_request(
                1,
                r#"{"sets":1,"assoc":1099511627776,"line_size":64,"policy":"lru"}"#,
            ),
            copy_request(2, r#"{"sets":1,"assoc":3,"line_size":64,"policy":"plru"}"#),
            copy_request(
                3,
                r#"{"sets":1099511627776,"assoc":1,"line_size":64,"policy":"lru"}"#,
            ),
            copy_request(4, r#"{"sets":4,"assoc":2,"line_size":64,"policy":"lru"}"#),
        ]
        .join("\n");
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        serve_lines(&service, Cursor::new(input), sink.clone()).expect("serving succeeds");
        let lines = lines_of(&sink);
        assert_eq!(lines.len(), 5, "four replies plus the stats trailer");
        for (id, needle) in [(1, "ways"), (2, "power of two"), (3, "sets")] {
            let error = lines[id - 1]
                .get("error")
                .and_then(Value::as_str)
                .expect("error envelope");
            assert!(error.contains(needle), "line {id}: {error}");
            assert_eq!(
                lines[id - 1].get("id").and_then(Value::as_u64),
                Some(id as u64)
            );
        }
        let report = lines[3].get("report").expect("the valid line is answered");
        assert_eq!(lines[3].get("id").and_then(Value::as_u64), Some(4));
        // The per-level counts appear once, under `result.levels`.
        let result = report.get("result").expect("the report has a result");
        assert!(result.get("levels").is_some());
        assert!(report.get("levels").is_none());
        assert!(result.get("l1").is_none() && result.get("l2").is_none());
        assert!(lines[4].get("serve_stats").is_some());
    }

    #[test]
    fn a_panicking_simulation_gets_an_error_envelope_and_eof_drains() {
        let service = Arc::new(
            SimService::new(ServeConfig {
                workers: 1,
                cache_capacity: 8,
                exact_budget: None,
                warm_paths: true,
            })
            .with_runner(|request| match request.kernel.name().as_str() {
                "boom" => panic!("simulator bug"),
                _ => Engine::new().run(request),
            }),
        );
        let level = r#"{"sets":4,"assoc":2,"line_size":64,"policy":"lru"}"#;
        let input = format!(
            "{}\n{}\n",
            copy_request(1, level).replace(r#""name":"copy""#, r#""name":"boom""#),
            copy_request(2, level)
        );
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        serve_lines(&service, Cursor::new(input), sink.clone()).expect("serving succeeds");
        let lines = lines_of(&sink);
        assert_eq!(lines.len(), 3, "two replies plus the stats trailer");
        let by_id = |id: u64| {
            lines
                .iter()
                .find(|line| line.get("id").and_then(Value::as_u64) == Some(id))
                .expect("every request is answered")
        };
        let error = by_id(1)
            .get("error")
            .and_then(Value::as_str)
            .expect("error");
        assert!(error.contains("simulator bug"), "{error}");
        assert!(by_id(2).get("report").is_some(), "the worker survived");
        let trailer = lines[2].get("serve_stats").expect("stats trailer");
        assert_eq!(trailer.get("errors").and_then(Value::as_u64), Some(1));
    }

    // The wire under arbitrary input: malformed JSON, valid JSON of the
    // wrong shape, pathologically nested JSON or kernels, absurd
    // geometries, unknown families and small valid requests.

    const MEMORY: &str = r#"{"levels":[{"sets":2,"assoc":2,"line_size":8,"policy":"lru"}]}"#;

    /// A wrapped request line with an explicit id.
    fn wrapped(id: u64, request: &str) -> String {
        format!(r#"{{"id":{id},"request":{request}}}"#)
    }

    /// A source-kernel request on `memory` with `backend`.
    fn kernel_request(code: &str, memory: &str, backend: &str) -> String {
        format!(
            r#"{{"kernel":{{"type":"source","name":"k","code":"{code}"}},"memory":{memory},"backend":"{backend}"}}"#
        )
    }

    /// One input line of kind `kind` (with variant `n`), and the id its reply
    /// must carry: the explicit id `id` where the line names one, otherwise the
    /// 1-based line number `number`.
    fn line(kind: usize, n: u64, id: u64, number: u64) -> (String, u64) {
        match kind {
            // Malformed JSON: no id can be read, so the reply uses the line
            // number.
            0 => {
                let text = match n % 3 {
                    0 => "not json".to_string(),
                    1 => format!(r#"{{"id":{id},"request":"#),
                    _ => "{\"id\": 1,,}".to_string(),
                };
                (text, number)
            }
            // Valid JSON of the wrong shape.
            1 => match n % 3 {
                0 => ("[1, 2, 3]".to_string(), number),
                1 => (wrapped(id, r#"{"kernel":42}"#), id),
                _ => (
                    wrapped(id, &kernel_request("", MEMORY, "no-such-backend")),
                    id,
                ),
            },
            // Nesting deep enough to overflow an unbounded recursive descent.
            2 => match n % 3 {
                0 => ("[".repeat(50_000), number),
                1 => {
                    let code = format!(
                        "double A[4]; A[{}0{}] = 0;",
                        "(".repeat(20_000),
                        ")".repeat(20_000)
                    );
                    (wrapped(id, &kernel_request(&code, MEMORY, "classic")), id)
                }
                _ => {
                    let mut code = String::from("double A[4]; ");
                    for d in 0..3_000 {
                        code.push_str(&format!("for (i{d} = 0; i{d} < 2; i{d}++) "));
                    }
                    code.push_str("A[0] = 0;");
                    (wrapped(id, &kernel_request(&code, MEMORY, "warping")), id)
                }
            },
            // Geometries no simulator accepts.
            3 => {
                let level = match n % 3 {
                    0 => r#"{"sets":1,"assoc":1099511627776,"line_size":64,"policy":"lru"}"#,
                    1 => r#"{"sets":1099511627776,"assoc":1,"line_size":64,"policy":"lru"}"#,
                    _ => r#"{"sets":1,"assoc":3,"line_size":64,"policy":"plru"}"#,
                };
                let memory = format!(r#"{{"levels":[{level}]}}"#);
                let code = "double A[4]; A[0] = 0;";
                (wrapped(id, &kernel_request(code, &memory, "classic")), id)
            }
            // A family nobody registered.
            4 => {
                let request = format!(
                    r#"{{"family":"{:016x}","bindings":{{"N":4}},"memory":{MEMORY},"backend":"classic"}}"#,
                    n
                );
                (wrapped(id, &request), id)
            }
            // A tiny valid request on a varying backend and size.
            _ => {
                let backend = ["classic", "warping", "trace", "sampled"][(n % 4) as usize];
                let size = 4 + n % 29;
                let code = format!("double A[{size}]; for (i = 0; i < {size}; i++) A[i] = A[i];");
                (wrapped(id, &kernel_request(&code, MEMORY, backend)), id)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever mix of lines arrives, every line gets exactly one reply
        /// carrying its id, nothing panics, and the stats trailer accounts for
        /// every line as either a request or a rejection.
        #[test]
        fn every_line_gets_exactly_one_reply(
            kinds in proptest::collection::vec((0usize..6, 0u64..1_000), 1..10),
        ) {
            let mut input = String::new();
            let mut expected: BTreeMap<u64, usize> = BTreeMap::new();
            for (index, &(kind, n)) in kinds.iter().enumerate() {
                let number = index as u64 + 1;
                // Explicit ids never collide with line numbers.
                let (text, id) = line(kind, n, 1_000 + number, number);
                input.push_str(&text);
                input.push('\n');
                *expected.entry(id).or_default() += 1;
            }
            let service = Arc::new(SimService::new(ServeConfig {
                workers: 1,
                cache_capacity: 8,
                exact_budget: None,
                warm_paths: true,
            }));
            let sink = Sink(Arc::default());
            let (stats, shutdown) =
                serve_lines(&service, Cursor::new(input), sink.clone()).expect("serving succeeds");
            prop_assert!(!shutdown);

            let replies = lines_of(&sink);
            prop_assert_eq!(replies.len(), kinds.len() + 1, "one reply per line plus the trailer");
            let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
            for reply in &replies[..kinds.len()] {
                let id = reply.get("id").and_then(Value::as_u64).expect("every reply has an id");
                prop_assert!(
                    reply.get("report").is_some() || reply.get("error").is_some(),
                    "a reply is a report or an error: {:?}",
                    reply
                );
                if let Some(error) = reply.get("error").and_then(Value::as_str) {
                    prop_assert!(!error.contains("internal error"), "{}", error);
                }
                *seen.entry(id).or_default() += 1;
            }
            prop_assert_eq!(&seen, &expected);

            let trailer = replies[kinds.len()].get("serve_stats").expect("stats trailer");
            let count = |key: &str| trailer.get(key).and_then(Value::as_u64).expect("counter");
            prop_assert_eq!(count("requests") + count("rejected"), kinds.len() as u64);
            prop_assert_eq!(stats.requests + stats.rejected, kinds.len() as u64);
        }
    }
}

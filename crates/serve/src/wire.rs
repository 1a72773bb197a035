//! The JSONL wire format used by `snia serve`.
//!
//! One request per line. Two shapes, matching the two bundle kinds:
//!
//! ```text
//! {"id": 0, "features": [0.1, 0.2, ...]}
//! {"id": 1, "images": [ ...5·crop·crop pixels... ], "dates": [d1,d2,d3,d4,d5]}
//! ```
//!
//! Each answered request becomes one output line, in input order:
//!
//! ```text
//! {"id": 0, "score": 0.93}
//! ```
//!
//! [`serve_lines`] streams a reader through an [`Engine`], pipelining up
//! to the engine's queue capacity. After each submission it writes every
//! answer that has already arrived at the head of the in-flight queue, so
//! output follows input as it is scored. When the engine sheds a
//! submission with [`ServeError::Overloaded`], the driver waits out the
//! oldest in-flight ticket (draining its answer) and retries —
//! backpressure propagates to the input stream instead of dropping
//! requests.

use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::time::Instant;

mod decode;

pub use decode::parse_request_line;

use crate::engine::{Engine, Response, ServeError, Ticket};

/// Errors from streaming JSONL through the engine.
#[derive(Debug)]
pub enum WireError {
    /// Reading the input or writing the output failed.
    Io(io::Error),
    /// An input line is not a valid request.
    Parse {
        /// 1-based input line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The engine rejected a request (bad shape or shutdown).
    Serve(ServeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "serve i/o error: {e}"),
            WireError::Parse { line, reason } => {
                write!(f, "bad request on line {line}: {reason}")
            }
            WireError::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Serve(e) => Some(e),
            WireError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Renders one response as a JSONL line (no trailing newline).
///
/// `f64`'s `Display` prints the shortest decimal that round-trips, so the
/// score survives a parse back into `f64` bit-exactly.
pub fn response_line(resp: &Response) -> String {
    format!("{{\"id\":{},\"score\":{}}}", resp.id, resp.score)
}

/// What a [`serve_lines`] run did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSummary {
    /// Requests answered.
    pub requests: usize,
    /// Wall-clock time spent.
    pub elapsed: std::time::Duration,
    /// `requests / elapsed`.
    pub requests_per_sec: f64,
}

fn write_answer(
    answer: Result<Response, ServeError>,
    output: &mut impl Write,
) -> Result<(), WireError> {
    let resp = answer.map_err(WireError::Serve)?;
    writeln!(output, "{}", response_line(&resp))?;
    Ok(())
}

/// Blocks for the oldest in-flight answer and writes it.
fn drain_one(inflight: &mut VecDeque<Ticket>, output: &mut impl Write) -> Result<(), WireError> {
    let ticket = inflight.pop_front().expect("drain with nothing in flight");
    write_answer(ticket.wait(), output)
}

/// Writes the answers that have already arrived at the head of the
/// in-flight queue, in order, and returns how many.
fn drain_ready(
    inflight: &mut VecDeque<Ticket>,
    output: &mut impl Write,
) -> Result<usize, WireError> {
    let mut written = 0;
    while let Some(answer) = inflight.front().and_then(Ticket::try_wait) {
        inflight.pop_front();
        write_answer(answer, output)?;
        written += 1;
    }
    Ok(written)
}

/// Streams JSONL requests from `input` through `engine`, writing one
/// scored JSONL line per request to `output` in input order, as soon as
/// the answers ahead of it are written. Blank lines are skipped.
///
/// # Errors
///
/// Returns the first [`WireError`] encountered; requests already in
/// flight at that point are abandoned.
pub fn serve_lines(
    engine: &Engine,
    input: impl BufRead,
    output: &mut impl Write,
) -> Result<ServeSummary, WireError> {
    let started = Instant::now();
    let mut inflight: VecDeque<Ticket> = VecDeque::new();
    let mut answered = 0usize;
    for (idx, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let req = parse_request_line(&line).map_err(|reason| WireError::Parse {
            line: idx + 1,
            reason,
        })?;
        loop {
            // submit() takes the request by value and does not hand it
            // back on rejection, so each attempt gets a clone.
            match engine.submit(req.clone()) {
                Ok(ticket) => {
                    inflight.push_back(ticket);
                    answered += drain_ready(&mut inflight, output)?;
                    break;
                }
                Err(ServeError::Overloaded { .. }) if !inflight.is_empty() => {
                    drain_one(&mut inflight, output)?;
                    answered += 1;
                }
                Err(e) => return Err(WireError::Serve(e)),
            }
        }
    }
    while !inflight.is_empty() {
        drain_one(&mut inflight, output)?;
        answered += 1;
    }
    let elapsed = started.elapsed();
    Ok(ServeSummary {
        requests: answered,
        elapsed,
        requests_per_sec: answered as f64 / elapsed.as_secs_f64().max(1e-12),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ServedModel;
    use crate::engine::{EngineConfig, RequestInput};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serde::Value;
    use snia_core::LightCurveClassifier;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    fn classifier_engine(queue_cap: usize) -> Engine {
        let mut rng = StdRng::seed_from_u64(9);
        let model = ServedModel::Classifier(LightCurveClassifier::new(1, 8, &mut rng));
        Engine::start(
            model,
            EngineConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                queue_cap,
                workers: 1,
            },
        )
    }

    fn request_lines(count: usize) -> Vec<String> {
        (0..count)
            .map(|i| {
                let feats: Vec<String> = (0..10)
                    .map(|j| format!("{}", (i * 10 + j) as f64 * 0.01))
                    .collect();
                format!("{{\"id\": {i}, \"features\": [{}]}}\n", feats.join(","))
            })
            .collect()
    }

    fn ids(output: &[u8]) -> Vec<u64> {
        String::from_utf8_lossy(output)
            .lines()
            .map(|l| {
                serde_json::from_str::<Value>(l)
                    .unwrap()
                    .get("id")
                    .and_then(Value::as_u64)
                    .unwrap()
            })
            .collect()
    }

    /// Hands out one line per `fill_buf`. Before line `pause` (0-based)
    /// it scores a probe through the same one-worker engine, whose FIFO
    /// queue then guarantees every earlier line has its answer; it notes
    /// what `out` held when line `pause + 1` is asked for.
    struct PausingReader<'a> {
        engine: &'a Engine,
        lines: Vec<String>,
        next: usize,
        offset: usize,
        pause: usize,
        out: Rc<RefCell<Vec<u8>>>,
        written_before_next: Option<Vec<u64>>,
    }

    impl io::Read for PausingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = {
                let avail = self.fill_buf()?;
                let n = avail.len().min(buf.len());
                buf[..n].copy_from_slice(&avail[..n]);
                n
            };
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for PausingReader<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.offset == 0 {
                if self.next == self.pause {
                    let probe = parse_request_line(&request_lines(1)[0]).unwrap();
                    self.engine.score(probe).unwrap();
                } else if self.next == self.pause + 1 {
                    self.written_before_next = Some(ids(&self.out.borrow()));
                }
            }
            Ok(self
                .lines
                .get(self.next)
                .map_or(&[][..], |l| &l.as_bytes()[self.offset..]))
        }

        fn consume(&mut self, amt: usize) {
            self.offset += amt;
            if self
                .lines
                .get(self.next)
                .is_some_and(|l| self.offset == l.len())
            {
                self.next += 1;
                self.offset = 0;
            }
        }
    }

    struct SharedOut(Rc<RefCell<Vec<u8>>>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parses_both_request_shapes() {
        let r = parse_request_line("{\"id\": 3, \"features\": [1, 2.5, -0.5]}").unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.input, RequestInput::Features(vec![1.0, 2.5, -0.5]));
        let r =
            parse_request_line("{\"id\": 4, \"images\": [0.1], \"dates\": [1,2,3,4,5]}").unwrap();
        assert!(matches!(r.input, RequestInput::Cutouts { .. }));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request_line("not json").is_err());
        assert!(parse_request_line("{\"features\": [1]}").is_err()); // no id
        assert!(parse_request_line("{\"id\": 1}").is_err()); // no payload
        assert!(parse_request_line("{\"id\": 1, \"features\": [\"x\"]}").is_err());
    }

    #[test]
    fn decoding_keeps_the_json_value_semantics() {
        let features = |line: &str| match parse_request_line(line).unwrap().input {
            RequestInput::Features(f) => f.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            other => panic!("not features: {other:?}"),
        };
        let via_f64 = |text: &str| (text.parse::<f64>().unwrap() as f32).to_bits();
        // Integer tokens go through i64, so -0 is +0.0; -0.0 is a float.
        assert_eq!(
            features("{\"id\":1,\"features\":[-0,-0.0,0]}"),
            [0.0f32.to_bits(), (-0.0f32).to_bits(), 0.0f32.to_bits()]
        );
        // Exact-path and general-path tokens both round through f64.
        let tokens = [
            "0.1",
            "-2.5",
            "0.123456789012345",
            "1.0000000000000002",
            "1e-7",
            "2E+3",
        ];
        let line = format!("{{\"id\":1,\"features\":[{}]}}", tokens.join(","));
        let want: Vec<u32> = tokens.iter().map(|t| via_f64(t)).collect();
        assert_eq!(features(&line), want);
        // The first occurrence of a key wins, escaped keys match, unknown
        // keys are skipped.
        let r = parse_request_line(
            "{\"\\u0069d\":5,\"id\":6,\"x\":{\"features\":[9]},\"features\":[1],\"features\":[2]}",
        )
        .unwrap();
        assert_eq!(r.id, 5);
        assert_eq!(r.input, RequestInput::Features(vec![1.0]));
        // A syntax error anywhere beats a shape error.
        let err = parse_request_line("{\"id\":\"x\",\"features\":[1]} x").unwrap_err();
        assert!(
            err.starts_with("invalid json: trailing characters"),
            "{err}"
        );
    }

    #[test]
    fn nesting_deeper_than_128_levels_is_invalid_json() {
        // The request object is level 1.
        let nested = |depth: usize| {
            format!(
                "{{\"id\":1,\"features\":[],\"x\":{}{}}}",
                "[".repeat(depth - 1),
                "]".repeat(depth - 1)
            )
        };
        assert!(parse_request_line(&nested(128)).is_ok());
        let err = parse_request_line(&nested(129)).unwrap_err();
        assert!(err.starts_with("invalid json: recursion limit"), "{err}");
    }

    #[test]
    fn serve_lines_rejects_a_megabyte_of_brackets() {
        let engine = classifier_engine(16);
        let line = "[".repeat(1 << 20);
        let err = serve_lines(&engine, line.as_bytes(), &mut Vec::new()).unwrap_err();
        engine.shutdown();
        assert!(
            matches!(err, WireError::Parse { line: 1, .. }),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn serve_lines_rejects_an_infinite_feature() {
        let engine = classifier_engine(16);
        let mut input = request_lines(1)[0].replace("[0,", "[1e400,");
        assert!(input.contains("1e400"), "{input}");
        input.insert_str(0, &request_lines(1)[0]);
        let mut out = Vec::new();
        let err = serve_lines(&engine, input.as_bytes(), &mut out).unwrap_err();
        engine.shutdown();
        assert!(
            matches!(err, WireError::Serve(ServeError::BadRequest { .. })),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn response_line_round_trips_the_score() {
        let resp = Response {
            id: 42,
            score: 0.123_456_789_012_345_67,
        };
        let line = response_line(&resp);
        let back: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(back.get("id").and_then(Value::as_u64), Some(42));
        let score = back.get("score").and_then(Value::as_f64).unwrap();
        assert_eq!(score.to_bits(), resp.score.to_bits());
    }

    #[test]
    fn serve_lines_preserves_order_under_backpressure() {
        // A tiny queue forces the Overloaded → drain-oldest → retry path.
        let engine = classifier_engine(2);
        let mut input = request_lines(20).concat();
        input.push('\n'); // blank lines are skipped
        let mut out = Vec::new();
        let summary = serve_lines(&engine, input.as_bytes(), &mut out).unwrap();
        engine.shutdown();
        assert_eq!(summary.requests, 20);
        assert_eq!(ids(&out), (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn serve_lines_writes_answers_before_input_ends() {
        // The queue never fills, so only answered-ticket draining can
        // write anything before EOF.
        let engine = classifier_engine(1024);
        let out = Rc::new(RefCell::new(Vec::new()));
        let mut reader = PausingReader {
            engine: &engine,
            lines: request_lines(6),
            next: 0,
            offset: 0,
            pause: 3,
            out: Rc::clone(&out),
            written_before_next: None,
        };
        let summary = serve_lines(&engine, &mut reader, &mut SharedOut(Rc::clone(&out))).unwrap();
        let early = reader
            .written_before_next
            .expect("reader saw line 5 requested");
        engine.shutdown();
        assert_eq!(summary.requests, 6);
        assert_eq!(
            early.first(),
            Some(&0),
            "line 1 not written by line 5: {early:?}"
        );
        assert_eq!(ids(&out.borrow()), (0..6).collect::<Vec<u64>>());
    }
}

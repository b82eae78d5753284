//! Structured, leveled JSONL event logging for the resident service.
//!
//! Each event is one JSON object per line:
//!
//! ```text
//! {"seq":3,"t_micros":18234,"level":"info","event":"request_completed","span":3,"ok":true}
//! ```
//!
//! `seq` is a monotonic line number assigned by the sink, `t_micros` is
//! the caller's monotonic timestamp (the server uses microseconds since
//! start), and the remaining fields are event-specific. Events below
//! the sink's [`LogLevel`] are dropped before serialization.
//!
//! The log is designed to cost nothing when disabled: callers hold an
//! `Option<EventLog>` and skip event construction entirely when it is
//! `None`. The records themselves are [`Json`] values so the same
//! object can feed both the log and the in-memory
//! [`FlightRecorder`](crate::FlightRecorder) without re-serialization.

use crate::json::Json;
use std::io::{self, Write};
use std::sync::Mutex;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// High-volume diagnostics.
    Debug,
    /// Normal request lifecycle events.
    Info,
    /// Recoverable oddities (refused admissions, dump failures).
    Warn,
    /// Request or server failures.
    Error,
}

impl LogLevel {
    /// The lowercase name used on the wire and in `--log-level`.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    /// Parses a lowercase level name.
    pub fn parse(text: &str) -> Option<LogLevel> {
        match text {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }
}

/// Builds one event record. `fields` are appended after the standard
/// `seq` / `t_micros` / `level` / `event` header, in the given order.
pub fn log_record(
    seq: u64,
    t_micros: u64,
    level: LogLevel,
    event: &str,
    fields: Vec<(String, Json)>,
) -> Json {
    let mut pairs = Vec::with_capacity(4 + fields.len());
    pairs.push(("seq".to_string(), Json::num(seq as f64)));
    pairs.push(("t_micros".to_string(), Json::num(t_micros as f64)));
    pairs.push(("level".to_string(), Json::Str(level.as_str().to_string())));
    pairs.push(("event".to_string(), Json::Str(event.to_string())));
    pairs.extend(fields);
    Json::Obj(pairs)
}

/// A thread-safe JSONL sink with a minimum severity.
///
/// Writes are line-buffered and flushed per event so the file is
/// always complete up to the last event — a log tailed mid-run or
/// collected after a crash never ends mid-record. Write errors are
/// counted rather than propagated: observability must not take the
/// service down.
pub struct EventLog {
    level: LogLevel,
    inner: Mutex<LogInner>,
}

struct LogInner {
    sink: Box<dyn Write + Send>,
    written: u64,
    write_errors: u64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("level", &self.level)
            .finish_non_exhaustive()
    }
}

impl EventLog {
    /// A log writing to an arbitrary sink.
    pub fn new(sink: Box<dyn Write + Send>, level: LogLevel) -> EventLog {
        EventLog {
            level,
            inner: Mutex::new(LogInner {
                sink,
                written: 0,
                write_errors: 0,
            }),
        }
    }

    /// A log writing to `path` (created or truncated).
    pub fn to_file(path: &str, level: LogLevel) -> io::Result<EventLog> {
        let file = std::fs::File::create(path)?;
        Ok(EventLog::new(Box::new(file), level))
    }

    /// The minimum severity this sink records.
    pub fn level(&self) -> LogLevel {
        self.level
    }

    /// Whether an event at `level` would be written — lets callers
    /// skip building records for filtered levels.
    pub fn enabled(&self, level: LogLevel) -> bool {
        level >= self.level
    }

    /// Writes one record as a JSONL line if `level` passes the filter.
    pub fn write(&self, level: LogLevel, record: &Json) {
        if level < self.level {
            return;
        }
        let line = record.to_string();
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let status = writeln!(inner.sink, "{line}").and_then(|_| inner.sink.flush());
        match status {
            Ok(()) => inner.written += 1,
            Err(_) => inner.write_errors += 1,
        }
    }

    /// Lines successfully written so far.
    pub fn written(&self) -> u64 {
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.written
    }

    /// Write or flush failures so far.
    pub fn write_errors(&self) -> u64 {
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.write_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A `Write` handle into a shared buffer the test can inspect.
    #[derive(Clone)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture(level: LogLevel) -> (EventLog, Arc<StdMutex<Vec<u8>>>) {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        let log = EventLog::new(Box::new(SharedBuf(buf.clone())), level);
        (log, buf)
    }

    #[test]
    fn records_round_trip_as_jsonl() {
        let (log, buf) = capture(LogLevel::Info);
        let record = log_record(
            7,
            1234,
            LogLevel::Info,
            "request_admitted",
            vec![("span".to_string(), Json::num(7.0))],
        );
        log.write(LogLevel::Info, &record);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let line = text.lines().next().unwrap();
        let back = Json::parse(line).unwrap();
        assert_eq!(back.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(back.get("t_micros").and_then(Json::as_u64), Some(1234));
        assert_eq!(
            back.get("event").and_then(Json::as_str),
            Some("request_admitted")
        );
        assert_eq!(back.get("span").and_then(Json::as_u64), Some(7));
        assert_eq!(log.written(), 1);
    }

    #[test]
    fn levels_below_the_filter_are_dropped() {
        let (log, buf) = capture(LogLevel::Warn);
        assert!(!log.enabled(LogLevel::Info));
        assert!(log.enabled(LogLevel::Error));
        log.write(
            LogLevel::Debug,
            &log_record(0, 0, LogLevel::Debug, "wave_start", vec![]),
        );
        log.write(
            LogLevel::Info,
            &log_record(1, 0, LogLevel::Info, "request_admitted", vec![]),
        );
        log.write(
            LogLevel::Error,
            &log_record(2, 0, LogLevel::Error, "request_failed", vec![]),
        );
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("request_failed"));
        assert_eq!(log.written(), 1);
    }

    #[test]
    fn level_names_parse_and_order() {
        assert_eq!(LogLevel::parse("debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("error"), Some(LogLevel::Error));
        assert_eq!(LogLevel::parse("loud"), None);
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Warn < LogLevel::Error);
        assert_eq!(LogLevel::Info.as_str(), "info");
    }

    #[test]
    fn write_failures_are_counted_not_fatal() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("sink gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let log = EventLog::new(Box::new(Broken), LogLevel::Info);
        log.write(
            LogLevel::Info,
            &log_record(0, 0, LogLevel::Info, "request_admitted", vec![]),
        );
        assert_eq!(log.written(), 0);
        assert_eq!(log.write_errors(), 1);
    }
}

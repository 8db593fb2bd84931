//! Chrome Trace Event Format export for recorded event streams.
//!
//! [`chrome_trace_json`] turns an [`Event`](crate::Event) stream into the
//! JSON object format (`{"traceEvents": [...]}`) that `chrome://tracing`
//! and Perfetto load directly:
//!
//! * worker batch spans become `"X"` (complete) duration events on one
//!   track per thread lane,
//! * queue depths sampled at enqueue/dequeue become `"C"` counter tracks,
//! * stalls become `"i"` instant events with the waited time in `args`,
//! * `"M"` metadata events name the process and each lane's track.
//!
//! Timestamps are microseconds since the run epoch (the format's unit);
//! sub-microsecond precision is kept as fractional `ts`.

use serde::Value;

use crate::analytics::WorkerTimeline;
use crate::event::{Event, EventKind};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn us(t_ns: u64) -> Value {
    Value::F64(t_ns as f64 / 1_000.0)
}

/// Builds a Chrome Trace Event Format document from an event stream and
/// the lanes [`EventAnalytics`](crate::EventAnalytics) folded it into.
///
/// The returned string is a complete JSON object; write it to `trace.json`
/// and load it in `chrome://tracing` or <https://ui.perfetto.dev>. Spans
/// come from the lanes' matched pairs, so a stream from a faulted run
/// (unmatched `BatchBegin`s) still exports cleanly.
pub fn chrome_trace_json(events: &[Event], workers: &[WorkerTimeline]) -> String {
    let mut trace_events: Vec<Value> = Vec::new();

    // Process metadata + one named track per lane.
    trace_events.push(obj(vec![
        ("name", Value::Str("process_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::U64(0)),
        ("tid", Value::U64(0)),
        ("args", obj(vec![("name", Value::Str("octocache".into()))])),
    ]));
    for w in workers {
        let label = if w.worker == 0 {
            "producer".to_string()
        } else {
            format!("octree worker {}", w.worker)
        };
        trace_events.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(w.worker as u64)),
            ("args", obj(vec![("name", Value::Str(label))])),
        ]));
    }

    // Batch spans as complete ("X") duration events.
    for w in workers {
        for s in &w.spans {
            trace_events.push(obj(vec![
                ("name", Value::Str("octree batch".into())),
                ("cat", Value::Str("batch".into())),
                ("ph", Value::Str("X".into())),
                ("ts", us(s.begin_ns)),
                ("dur", us(s.duration_ns())),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(w.worker as u64)),
                (
                    "args",
                    obj(vec![
                        ("scan", Value::U64(s.scan)),
                        ("cells", Value::U64(s.cells)),
                    ]),
                ),
            ]));
        }
    }

    // Queue depth counters and stall instants, straight from the stream.
    for e in events {
        match e.kind {
            EventKind::QueueEnqueue | EventKind::QueueDequeue => {
                trace_events.push(obj(vec![
                    ("name", Value::Str(format!("queue depth lane {}", e.worker))),
                    ("ph", Value::Str("C".into())),
                    ("ts", us(e.t_ns)),
                    ("pid", Value::U64(0)),
                    ("args", obj(vec![("depth", Value::U64(e.value))])),
                ]));
            }
            EventKind::QueueStall => {
                trace_events.push(obj(vec![
                    ("name", Value::Str("stall".into())),
                    ("cat", Value::Str("queue".into())),
                    ("ph", Value::Str("i".into())),
                    ("s", Value::Str("t".into())),
                    ("ts", us(e.t_ns)),
                    ("pid", Value::U64(0)),
                    ("tid", Value::U64(e.worker as u64)),
                    ("args", obj(vec![("waited_ns", Value::U64(e.value))])),
                ]));
            }
            _ => {}
        }
    }

    let doc = obj(vec![
        ("traceEvents", Value::Seq(trace_events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]);
    serde::json::to_string(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventAnalytics;

    fn chrome(events: &[Event]) -> String {
        chrome_trace_json(events, &EventAnalytics::from_events(events).workers)
    }

    fn mk(t_ns: u64, worker: u32, kind: EventKind, value: u64) -> Event {
        Event {
            t_ns,
            scan: 0,
            worker,
            kind,
            key: 0,
            bucket: 0,
            value,
        }
    }

    #[test]
    fn trace_parses_and_contains_spans() {
        let events = vec![
            mk(1_000, 1, EventKind::BatchBegin, 0),
            mk(2_000, 0, EventKind::QueueEnqueue, 4),
            mk(3_000, 1, EventKind::QueueStall, 777),
            mk(9_000, 1, EventKind::BatchEnd, 64),
        ];
        let json = chrome(&events);
        let v: Value = serde::json::from_str(&json).unwrap();
        let entries = v.get("traceEvents").and_then(Value::as_seq).unwrap();
        let phases: Vec<&str> = entries
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert!(phases.contains(&"X"), "complete span missing: {phases:?}");
        assert!(phases.contains(&"C"), "counter missing");
        assert!(phases.contains(&"i"), "instant missing");
        assert!(phases.contains(&"M"), "metadata missing");
        // The span is 8 µs long on lane 1.
        let span = entries
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("tid").and_then(Value::as_u64), Some(1));
        assert_eq!(
            span.get("dur").and_then(Value::as_f64),
            Some(8.0),
            "span duration should be 8 us"
        );
    }

    #[test]
    fn empty_stream_still_valid_json() {
        let json = chrome(&[]);
        let v: Value = serde::json::from_str(&json).unwrap();
        assert!(v.get("traceEvents").and_then(Value::as_seq).is_some());
    }
}

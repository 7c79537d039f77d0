//! The journal's replayability guarantee, asserted end to end: the event
//! stream an instrumented engine emits reconciles *exactly* with the
//! final report — every opened window closes once, the closed windows'
//! per-cell tallies sum to the report's outcome and trivial-instance
//! counts, and the live `churnlab_windows_open` gauge returns to zero.

mod common;

use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig, EngineObs};
use churnlab_obs::{parse_jsonl, Journal, JournalEvent, MemorySink, Registry};
use common::study;

fn events_named<'a>(events: &'a [JournalEvent], name: &str) -> Vec<&'a JournalEvent> {
    events.iter().filter(|e| e.event == name).collect()
}

#[test]
fn journal_reconciles_with_final_report() {
    let s = study(7);
    let (platform, measurements) = common::measurements(&s);

    let sink = MemorySink::new();
    let registry = Registry::new();
    let obs = EngineObs::new(registry.clone()).with_journal(Journal::to_writer(sink.clone()));
    let cfg = EngineConfig::new(PipelineConfig::paper(s.platform_cfg.total_days)).with_shards(3);
    let engine = Engine::new_with_obs(&platform, cfg, obs);

    // A mid-stream snapshot must NOT close windows: only the final
    // report freezes per-cell tallies.
    let half = measurements.len() / 2;
    {
        let mut feeder = engine.feeder();
        for m in &measurements[..half] {
            feeder.ingest_owned(m.clone());
        }
    }
    let _ = engine.snapshot();
    {
        let mut feeder = engine.feeder();
        for m in &measurements[half..] {
            feeder.ingest_owned(m.clone());
        }
    }
    let (results, stats) = engine.finish_with_stats();

    let text = sink.contents();
    let events = parse_jsonl(&text).expect("journal parses back");
    assert!(!events.is_empty(), "instrumented run emitted no events");

    let opened = events_named(&events, "window_opened");
    let closed = events_named(&events, "window_closed");
    let solved = events_named(&events, "cell_solved");
    assert!(!opened.is_empty(), "no windows opened over a non-empty campaign");
    assert_eq!(
        opened.len(),
        closed.len(),
        "every opened window must close exactly once at the final report"
    );

    // Each close names a window some shard opened (same shard, url, index).
    let key = |e: &JournalEvent| {
        (e.field("shard").unwrap(), e.field("url_id").unwrap(), e.field("window_index").unwrap())
    };
    let mut open_keys: Vec<_> = opened.iter().map(|e| key(e)).collect();
    let mut close_keys: Vec<_> = closed.iter().map(|e| key(e)).collect();
    open_keys.sort_unstable();
    close_keys.sort_unstable();
    assert_eq!(open_keys, close_keys, "window_closed events must pair with window_opened");

    // The tallies the closes carry sum to exactly the report's counts.
    let cells_reported: u64 = closed.iter().map(|e| e.field("cells_reported").unwrap()).sum();
    let cells_trivial: u64 = closed.iter().map(|e| e.field("cells_trivial").unwrap()).sum();
    assert_eq!(cells_reported, results.outcomes.len() as u64);
    assert_eq!(cells_trivial, results.trivial_instances);
    assert_eq!(solved.len() as u64, cells_reported, "one cell_solved per reported outcome");

    // Metrics agree with both the stats counters and the journal.
    let snap = registry.scrape();
    assert_eq!(snap.counter_sum("churnlab_measurements_total"), measurements.len() as u64);
    assert_eq!(snap.counter_sum("churnlab_observations_total"), stats.observations);
    let windows_open: i64 = snap
        .samples
        .iter()
        .filter(|s| s.name == "churnlab_windows_open")
        .map(|s| match &s.value {
            churnlab_obs::SampleValue::Gauge(v) => *v,
            other => panic!("windows_open should be a gauge, got {other:?}"),
        })
        .sum();
    assert_eq!(windows_open, 0, "every window must be closed after finish");
}

/// Same reconciliation with a lateness horizon over a day-sorted stream:
/// windows now close **mid-stream** as the watermark passes them, not
/// only at the final report — and the journal must still pair every open
/// with exactly one close, carry exact tallies, and return the gauge to
/// zero.
#[test]
fn journal_reconciles_with_midstream_retirement() {
    let s = study(13);
    let (platform, mut measurements) = common::measurements(&s);
    // Retirement needs an advancing watermark: feed in day order, the
    // shape a live deployment's stream has.
    measurements.sort_by_key(|m| m.day);

    let sink = MemorySink::new();
    let registry = Registry::new();
    let obs = EngineObs::new(registry.clone()).with_journal(Journal::to_writer(sink.clone()));
    let cfg = EngineConfig::new(PipelineConfig::paper(s.platform_cfg.total_days))
        .with_shards(3)
        .with_window_horizon(2);
    let engine = Engine::new_with_obs(&platform, cfg, obs);
    for m in &measurements {
        engine.ingest(m);
    }
    let (results, stats) = engine.finish_with_stats();

    assert!(
        stats.retire.windows_retired > 0,
        "a 2-day horizon over a day-sorted Smoke stream must retire windows mid-stream"
    );
    assert!(stats.retire.cells_retired > 0);

    let text = sink.contents();
    let events = parse_jsonl(&text).expect("journal parses back");
    let opened = events_named(&events, "window_opened");
    let closed = events_named(&events, "window_closed");
    let solved = events_named(&events, "cell_solved");
    assert_eq!(opened.len(), closed.len(), "every opened window closes exactly once");

    let key = |e: &JournalEvent| {
        (e.field("shard").unwrap(), e.field("url_id").unwrap(), e.field("window_index").unwrap())
    };
    let mut open_keys: Vec<_> = opened.iter().map(|e| key(e)).collect();
    let mut close_keys: Vec<_> = closed.iter().map(|e| key(e)).collect();
    open_keys.sort_unstable();
    close_keys.sort_unstable();
    assert_eq!(open_keys, close_keys, "retirement closes must pair with opens");

    // Retired windows journal their closes *before* the stream ends; the
    // final report closes the rest. Tallies still reconcile exactly.
    let cells_reported: u64 = closed.iter().map(|e| e.field("cells_reported").unwrap()).sum();
    let cells_trivial: u64 = closed.iter().map(|e| e.field("cells_trivial").unwrap()).sum();
    assert_eq!(cells_reported, results.outcomes.len() as u64);
    assert_eq!(cells_trivial, results.trivial_instances);
    assert_eq!(solved.len() as u64, cells_reported);

    let snap = registry.scrape();
    let windows_open: i64 = snap
        .samples
        .iter()
        .filter(|s| s.name == "churnlab_windows_open")
        .map(|s| match &s.value {
            churnlab_obs::SampleValue::Gauge(v) => *v,
            other => panic!("windows_open should be a gauge, got {other:?}"),
        })
        .sum();
    assert_eq!(windows_open, 0, "retired + finished must drain the gauge to zero");
    assert_eq!(
        snap.counter_sum("churnlab_measurements_total"),
        measurements.len() as u64
    );
}

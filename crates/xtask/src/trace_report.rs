//! `trace-report` — validate a request-trace JSONL dump (as written by
//! `export_traces` / `export_slow_log`) and render a per-stage latency
//! breakdown.
//!
//! Every line must be one JSON object matching the `RequestTrace`
//! schema: required scalar fields with the right types, a known request
//! kind and outcome, and a non-empty `stages` array whose entries name
//! known stages with non-negative integer timings and non-decreasing
//! start offsets. All violations are collected (with line numbers)
//! before failing, so one bad record doesn't mask the rest.
//!
//! The report aggregates `dur_us` per stage across every valid record
//! and prints count / p50 / p99 / max per stage plus an end-to-end
//! total row.
//!
//! The tests run the gate over a dump of a live tier, so the kind and
//! outcome lists below cannot fall behind the labels the service emits.

use crate::json::{parse, Json};
use causality_telemetry::Stage;

/// The position of the stage named `name` in [`Stage::ALL`] (serving-path
/// order), or `None` for an unknown stage.
fn stage_slot(name: &str) -> Option<usize> {
    Stage::ALL.iter().position(|stage| stage.as_str() == name)
}

const KINDS: [&str; 3] = ["why_so", "why_no", "rank_top_k"];

const OUTCOMES: [&str; 10] = [
    "ok",
    "disconnected",
    "queue_full",
    "overloaded",
    "circuit_open",
    "deadline_exceeded",
    "timeout",
    "invalid_request",
    "error",
    "panicked",
];

/// Per-stage duration samples plus the end-to-end totals.
#[derive(Debug, Default)]
struct Aggregate {
    /// `durations[i]` collects `dur_us` for `Stage::ALL[i]`.
    durations: Vec<Vec<u64>>,
    totals: Vec<u64>,
    records: usize,
    /// `outcomes[i]` counts records whose outcome is `OUTCOMES[i]`.
    outcomes: Vec<usize>,
}

/// Validate `text` (JSONL) and aggregate it. Returns the aggregate or
/// every violation found, each prefixed with its 1-based line number.
fn validate(text: &str) -> Result<Aggregate, Vec<String>> {
    let mut agg = Aggregate {
        durations: vec![Vec::new(); Stage::ALL.len()],
        outcomes: vec![0; OUTCOMES.len()],
        ..Aggregate::default()
    };
    let mut violations = Vec::new();
    let mut saw_line = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        saw_line = true;
        let n = idx + 1;
        match parse(line) {
            Err(e) => violations.push(format!("line {n}: not JSON: {e}")),
            Ok(doc) => {
                let before = violations.len();
                check_record(&doc, n, &mut violations);
                if violations.len() == before {
                    aggregate_record(&doc, &mut agg);
                }
            }
        }
    }
    if !saw_line {
        violations.push("no records: the file is empty".to_string());
    }
    if violations.is_empty() {
        Ok(agg)
    } else {
        Err(violations)
    }
}

/// A non-negative integer (JSON numbers arrive as `f64`).
fn as_uint(value: &Json) -> Option<u64> {
    value
        .as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64)
        .map(|n| n as u64)
}

fn check_record(doc: &Json, n: usize, out: &mut Vec<String>) {
    let mut fail = |msg: String| out.push(format!("line {n}: {msg}"));

    for key in [
        "seq",
        "shard",
        "tenant",
        "relations",
        "lineage_conjuncts",
        "snapshot_version",
        "total_us",
    ] {
        match doc.get(key) {
            None => fail(format!("missing required field {key:?}")),
            Some(v) if as_uint(v).is_none() => {
                fail(format!("{key:?} must be a non-negative integer"))
            }
            Some(_) => {}
        }
    }
    for key in ["cache_hit", "coalesced"] {
        match doc.get(key) {
            Some(Json::Bool(_)) => {}
            _ => fail(format!("{key:?} must be a boolean")),
        }
    }
    match doc.get("kind").and_then(Json::as_str) {
        Some(kind) if KINDS.contains(&kind) => {}
        Some(kind) => fail(format!("unknown kind {kind:?}")),
        None => fail("missing or non-string \"kind\"".to_string()),
    }
    match doc.get("outcome").and_then(Json::as_str) {
        Some(outcome) if OUTCOMES.contains(&outcome) => {}
        Some(outcome) => fail(format!("unknown outcome {outcome:?}")),
        None => fail("missing or non-string \"outcome\"".to_string()),
    }
    match doc.get("dichotomy") {
        Some(Json::Str(_)) => {}
        _ => fail("\"dichotomy\" must be a string".to_string()),
    }
    match doc.get("rho_max").and_then(Json::as_f64) {
        Some(rho) if rho >= 0.0 => {}
        _ => fail("\"rho_max\" must be a non-negative number".to_string()),
    }
    match doc.get("deadline_slack_us") {
        Some(Json::Null) => {}
        // Slack is signed: a missed deadline reports how far over it went.
        Some(Json::Num(slack)) if slack.fract() == 0.0 => {}
        _ => fail("\"deadline_slack_us\" must be null or an integer".to_string()),
    }

    let Some(stages) = doc.get("stages").and_then(Json::as_arr) else {
        fail("\"stages\" must be an array".to_string());
        return;
    };
    if stages.is_empty() {
        fail("\"stages\" must not be empty".to_string());
    }
    let mut prev_start: Option<u64> = None;
    for (i, span) in stages.iter().enumerate() {
        match span.get("stage").and_then(Json::as_str) {
            Some(name) if stage_slot(name).is_some() => {}
            Some(name) => fail(format!("stages[{i}]: unknown stage {name:?}")),
            None => fail(format!("stages[{i}]: missing stage name")),
        }
        let start = span.get("start_us").and_then(as_uint);
        if start.is_none() {
            fail(format!(
                "stages[{i}]: \"start_us\" must be a non-negative integer"
            ));
        }
        if span.get("dur_us").and_then(as_uint).is_none() {
            fail(format!(
                "stages[{i}]: \"dur_us\" must be a non-negative integer"
            ));
        }
        if let (Some(prev), Some(cur)) = (prev_start, start) {
            if cur < prev {
                fail(format!(
                    "stages[{i}]: start_us {cur} goes backwards (previous stage started at {prev})"
                ));
            }
        }
        prev_start = start.or(prev_start);
    }
}

/// Fold one already-validated record into the aggregate.
fn aggregate_record(doc: &Json, agg: &mut Aggregate) {
    agg.records += 1;
    if let Some(total) = doc.get("total_us").and_then(as_uint) {
        agg.totals.push(total);
    }
    if let Some(slot) = doc
        .get("outcome")
        .and_then(Json::as_str)
        .and_then(|outcome| OUTCOMES.iter().position(|o| *o == outcome))
    {
        agg.outcomes[slot] += 1;
    }
    let Some(stages) = doc.get("stages").and_then(Json::as_arr) else {
        return;
    };
    for span in stages {
        let (Some(name), Some(dur)) = (
            span.get("stage").and_then(Json::as_str),
            span.get("dur_us").and_then(as_uint),
        ) else {
            continue;
        };
        if let Some(slot) = stage_slot(name) {
            agg.durations[slot].push(dur);
        }
    }
}

/// Exact quantile over a sorted sample (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn render(path: &str, agg: &Aggregate) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace-report: {path} — {} records, schema ok\n\n",
        agg.records
    ));
    out.push_str(&format!(
        "{:<16} {:>7} {:>10} {:>10} {:>10}\n",
        "stage", "count", "p50_us", "p99_us", "max_us"
    ));
    for (i, stage) in Stage::ALL.iter().enumerate() {
        let mut durs = agg.durations[i].clone();
        durs.sort_unstable();
        out.push_str(&format!(
            "{:<16} {:>7} {:>10} {:>10} {:>10}\n",
            stage.as_str(),
            durs.len(),
            quantile(&durs, 0.50),
            quantile(&durs, 0.99),
            durs.last().copied().unwrap_or(0),
        ));
    }
    let mut totals = agg.totals.clone();
    totals.sort_unstable();
    out.push_str(&format!(
        "{:<16} {:>7} {:>10} {:>10} {:>10}\n",
        "total (e2e)",
        totals.len(),
        quantile(&totals, 0.50),
        quantile(&totals, 0.99),
        totals.last().copied().unwrap_or(0),
    ));
    // Recovery timeline (PR 9): how much of the traffic needed healing —
    // retried submissions (their `retry` span is the backoff wait, so
    // the stage row above gives the wait distribution) and every
    // non-`ok` outcome the tier answered with.
    let retry_slot = stage_slot("retry").expect("retry is a known stage");
    out.push_str(&format!(
        "\nrecovery: {} of {} records were backed-off retries\n",
        agg.durations[retry_slot].len(),
        agg.records
    ));
    for (i, name) in OUTCOMES.iter().enumerate() {
        if agg.outcomes[i] > 0 {
            out.push_str(&format!("  outcome {:<18} {:>7}\n", name, agg.outcomes[i]));
        }
    }
    out
}

/// Validate one JSONL file and return the rendered report, or every
/// violation found.
pub fn run_report(path: &str) -> Result<String, Vec<String>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| vec![format!("cannot read {path}: {e}")])?;
    let agg = validate(&text)?;
    Ok(render(path, &agg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(extra: &str) -> String {
        format!(
            r#"{{"seq":1,"shard":0,"tenant":0,"kind":"why_so","outcome":"ok","cache_hit":false,"coalesced":false,"relations":2,"dichotomy":"PTIME","lineage_conjuncts":1,"rho_max":0.5,"snapshot_version":1,"deadline_slack_us":null,"total_us":42,"stages":[{{"stage":"admission","start_us":0,"dur_us":1}},{{"stage":"respond","start_us":40,"dur_us":2}}]{extra}}}"#
        )
    }

    #[test]
    fn a_valid_record_aggregates() {
        let agg = validate(&record("")).expect("valid");
        assert_eq!(agg.records, 1);
        assert_eq!(agg.totals, vec![42]);
        assert_eq!(agg.durations[0], vec![1]);
        let respond = stage_slot("respond").unwrap();
        assert_eq!(agg.durations[respond], vec![2]);
        assert_eq!(agg.outcomes[0], 1, "outcome \"ok\" counted");
    }

    #[test]
    fn retry_stage_and_circuit_open_outcome_are_accepted() {
        let retried = record("").replace(
            r#"{"stage":"admission","start_us":0,"dur_us":1}"#,
            r#"{"stage":"admission","start_us":0,"dur_us":0},{"stage":"retry","start_us":0,"dur_us":7}"#,
        );
        let agg = validate(&retried).expect("retry is schema-valid");
        let slot = stage_slot("retry").unwrap();
        assert_eq!(agg.durations[slot], vec![7]);
        let table = render("x.jsonl", &agg);
        assert!(
            table.contains("recovery: 1 of 1 records were backed-off retries"),
            "{table}"
        );

        let shed = record("").replace("\"outcome\":\"ok\"", "\"outcome\":\"circuit_open\"");
        let agg = validate(&shed).expect("circuit_open is schema-valid");
        let slot = OUTCOMES.iter().position(|o| *o == "circuit_open").unwrap();
        assert_eq!(agg.outcomes[slot], 1);
        assert!(render("x.jsonl", &agg).contains("outcome circuit_open"));
    }

    #[test]
    fn approx_refine_stage_is_accepted_and_aggregated() {
        let with_refine = record("").replace(
            r#"{"stage":"respond","start_us":40,"dur_us":2}"#,
            r#"{"stage":"approx_refine","start_us":30,"dur_us":9},{"stage":"respond","start_us":40,"dur_us":2}"#,
        );
        let agg = validate(&with_refine).expect("approx_refine is schema-valid");
        let slot = stage_slot("approx_refine").unwrap();
        assert_eq!(agg.durations[slot], vec![9]);
    }

    #[test]
    fn violations_carry_line_numbers_and_accumulate() {
        let text = format!(
            "{}\n{}\n{}",
            record(""),
            record("").replace("\"why_so\"", "\"maybe_so\""),
            record("").replace("\"outcome\":\"ok\"", "\"outcome\":\"shrug\"")
        );
        let errs = validate(&text).unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].starts_with("line 2:") && errs[0].contains("maybe_so"));
        assert!(errs[1].starts_with("line 3:") && errs[1].contains("shrug"));
    }

    #[test]
    fn unknown_stage_names_are_rejected() {
        let bad = record("").replace("\"admission\"", "\"teleport\"");
        let errs = validate(&bad).unwrap_err();
        assert!(errs[0].contains("unknown stage \"teleport\""), "{errs:?}");
    }

    #[test]
    fn backwards_stage_starts_are_rejected() {
        let bad = record("")
            .replace("\"start_us\":40", "\"start_us\":0")
            .replace(
                "\"stage\":\"admission\",\"start_us\":0",
                "\"stage\":\"admission\",\"start_us\":9",
            );
        let errs = validate(&bad).unwrap_err();
        assert!(errs[0].contains("goes backwards"), "{errs:?}");
    }

    #[test]
    fn missing_fields_and_bad_types_are_rejected() {
        let missing = record("").replace("\"seq\":1,", "");
        assert!(validate(&missing).unwrap_err()[0].contains("\"seq\""));
        let negative = record("").replace("\"total_us\":42", "\"total_us\":-3");
        assert!(validate(&negative).unwrap_err()[0].contains("total_us"));
        let fractional = record("").replace("\"shard\":0", "\"shard\":0.5");
        assert!(validate(&fractional).unwrap_err()[0].contains("shard"));
        assert!(validate("")
            .unwrap_err()
            .iter()
            .any(|e| e.contains("empty")));
    }

    #[test]
    fn signed_slack_is_accepted() {
        let over = record("").replace("\"deadline_slack_us\":null", "\"deadline_slack_us\":-120");
        assert!(validate(&over).is_ok());
    }

    #[test]
    fn report_renders_every_stage_row() {
        let agg = validate(&record("")).unwrap();
        let table = render("x.jsonl", &agg);
        for stage in Stage::ALL.map(Stage::as_str) {
            assert!(table.contains(stage), "missing {stage} in:\n{table}");
        }
        assert!(table.contains("total (e2e)"));
        assert!(table.contains("1 records, schema ok"));
    }

    /// The gate passes a dump of a live one-shard tier that holds `ok`
    /// traces of every request kind, `overloaded`, `panicked` and
    /// `error` outcomes, an `approx_refine` chain, a backed-off `retry`,
    /// and a non-empty slow log.
    #[test]
    fn a_live_tier_dump_passes_the_gate() {
        use causality_core::ranking::Method;
        use causality_datagen::hard_instances::triangle_fan;
        use causality_engine::database::example_2_2;
        use causality_engine::{ConjunctiveQuery, Value};
        use causality_service::{
            ExplainRequest, RetryPolicy, ServiceConfig, ServiceError, ShardedService, TierConfig,
        };
        use causality_telemetry::TelemetryConfig;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;

        let tier = ShardedService::new(TierConfig {
            shards: 1,
            admission_limit: 2,
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                telemetry: TelemetryConfig {
                    slow_latency: Some(Duration::from_millis(5)),
                    ..TelemetryConfig::default()
                },
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let easy = tier.add_tenant("easy", example_2_2()).unwrap();
        let fan = triangle_fan(4);
        let hard = tier.add_tenant("hard", fan.db.clone()).unwrap();
        let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
        let answer = |x: &str| vec![Value::str(x)];

        for request in [
            ExplainRequest::why_so(q.clone(), answer("a2")),
            ExplainRequest::why_no(q.clone(), answer("a1")),
            ExplainRequest::rank_top_k(q.clone(), answer("a4"), 1),
        ] {
            tier.explain(easy, request).unwrap().result.unwrap();
        }
        // Algorithm 1 refuses the triangle: a core error.
        let flow = ExplainRequest::why_so(fan.query.clone(), vec![]).with_method(Method::Flow);
        let refused = tier.explain(hard, flow).unwrap().result;
        assert!(matches!(refused, Err(ServiceError::Core(_))), "{refused:?}");
        // The anytime route under a deadline.
        tier.submit_with_deadline(
            hard,
            ExplainRequest::why_so(fan.query.clone(), vec![]),
            Duration::from_secs(5),
        )
        .unwrap()
        .wait()
        .unwrap()
        .result
        .unwrap();
        // One panic, then a backed-off retry that succeeds.
        let fired = AtomicBool::new(false);
        tier.inject_fault(move |_| !fired.swap(true, Ordering::Relaxed));
        let retried = tier.explain(easy, ExplainRequest::why_so(q.clone(), answer("a3")));
        retried.unwrap().result.unwrap();
        // Stalled work past an admission limit of 2: rejects, and slow
        // requests for the slow log.
        tier.inject_delay(|_| Some(Duration::from_millis(20)));
        let mut accepted = Vec::new();
        for _ in 0..8 {
            match tier.submit(easy, ExplainRequest::why_so(q.clone(), answer("a4"))) {
                Ok(pending) => accepted.push(pending),
                Err(e) => assert!(matches!(e, ServiceError::Overloaded { .. }), "{e}"),
            }
        }
        for pending in accepted {
            pending.wait().unwrap().result.unwrap();
        }

        let traces = validate(&tier.export_traces()).expect("the trace dump passes the gate");
        validate(&tier.export_slow_log()).expect("the slow log is non-empty and passes the gate");
        for outcome in ["ok", "overloaded", "panicked", "error"] {
            let slot = OUTCOMES.iter().position(|o| *o == outcome).unwrap();
            assert!(traces.outcomes[slot] > 0, "no {outcome:?} trace");
        }
        for stage in ["approx_refine", "retry"] {
            let slot = stage_slot(stage).unwrap();
            assert!(!traces.durations[slot].is_empty(), "no {stage:?} span");
        }
        let recent = tier.recent_traces();
        for kind in KINDS {
            assert!(
                recent.iter().any(|t| t.kind == kind && t.outcome == "ok"),
                "no ok {kind:?} trace"
            );
        }
        tier.shutdown();
    }

    /// `KINDS` and `OUTCOMES` are copied by hand from the service's
    /// labels; they must list exactly those labels, in order.
    #[test]
    fn label_lists_match_the_service() {
        use causality_core::CoreError;
        use causality_service::{ExplainKind, ServiceError};
        use std::time::Duration;

        // Both matches are exhaustive on purpose: a new variant stops
        // this test compiling until it is listed here.
        let kinds = [
            ExplainKind::WhySo,
            ExplainKind::WhyNo,
            ExplainKind::RankTopK(1),
        ]
        .map(|kind| match kind {
            ExplainKind::WhySo | ExplainKind::WhyNo | ExplainKind::RankTopK(_) => kind.label(),
        });
        assert_eq!(kinds, KINDS);

        let hint = Duration::from_millis(1);
        let errors = [
            ServiceError::Disconnected,
            ServiceError::QueueFull,
            ServiceError::Overloaded { retry_after: hint },
            ServiceError::CircuitOpen { retry_after: hint },
            ServiceError::DeadlineExceeded,
            ServiceError::Timeout,
            ServiceError::InvalidRequest(String::new()),
            ServiceError::Core(CoreError::NotEndogenous),
            ServiceError::Panicked(String::new()),
        ];
        let outcomes: Vec<&str> = std::iter::once("ok")
            .chain(errors.iter().map(|e| match e {
                ServiceError::Disconnected
                | ServiceError::QueueFull
                | ServiceError::Overloaded { .. }
                | ServiceError::CircuitOpen { .. }
                | ServiceError::DeadlineExceeded
                | ServiceError::Timeout
                | ServiceError::InvalidRequest(_)
                | ServiceError::Core(_)
                | ServiceError::Panicked(_) => e.outcome_label(),
            }))
            .collect();
        assert_eq!(outcomes, OUTCOMES);
    }

    #[test]
    fn nearest_rank_quantiles() {
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.5), 7);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.99), 4);
    }
}

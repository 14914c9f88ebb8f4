//! The CI perf-regression gate: compares freshly produced `BENCH_*.json`
//! artifacts against the committed `BENCH_*.baseline.json` snapshots and
//! fails when any tracked speedup ratio regresses beyond a noise tolerance.
//!
//! Only *ratios* are gated (allocating/workspace, full/incremental,
//! linear/cells, three/four objectives, sequential/batch), never absolute
//! nanoseconds: both sides of each ratio are measured in the same process
//! on the same host, so the ratio is robust to runner speed while absolute
//! times are not.  The batch-engine ratio gets special treatment because a
//! 1-core runner physically cannot show a scheduling win — there the gate
//! only enforces the scheduler-overhead bound.
//!
//! The JSON handling is a deliberately small recursive-descent parser: the
//! artifacts are produced by our own benches with a known shape, and the
//! container build has no serde.

use std::fmt;

/// A parsed JSON value (the subset our bench artifacts use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as f64; our artifacts stay well inside
    /// the exact-integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Array contents, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: numeric field of an object.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                });
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 sequences pass through byte by byte; the
                // artifacts are ASCII in practice.
                out.push(c as char);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' (found {other:?})")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("expected ',' or '}}' (found {other:?})")),
        }
    }
}

/// Which way a tracked ratio is supposed to point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// A speedup ratio: regression = fresh falls below baseline.
    HigherIsBetter,
    /// A cost ratio: regression = fresh rises above baseline.
    LowerIsBetter,
}

/// One tracked ratio compared between baseline and fresh artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Human-readable metric name.
    pub name: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub fresh: f64,
    /// Regression direction.
    pub direction: Direction,
    /// When `true`, `baseline` is an absolute bound the fresh value must
    /// respect regardless of tolerance (used for the 1-core batch
    /// overhead floor).
    pub absolute: bool,
}

impl Metric {
    /// Whether the fresh value constitutes a regression at `tolerance`
    /// (e.g. 0.25 = a tracked speedup may lose up to 25% before failing).
    pub fn regressed(&self, tolerance: f64) -> bool {
        if !self.fresh.is_finite() || !self.baseline.is_finite() {
            return true;
        }
        if self.absolute {
            return match self.direction {
                Direction::HigherIsBetter => self.fresh < self.baseline,
                Direction::LowerIsBetter => self.fresh > self.baseline,
            };
        }
        match self.direction {
            Direction::HigherIsBetter => self.fresh < self.baseline * (1.0 - tolerance),
            Direction::LowerIsBetter => self.fresh > self.baseline * (1.0 + tolerance),
        }
    }

    /// fresh / baseline.
    pub fn ratio(&self) -> f64 {
        self.fresh / self.baseline
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<44} baseline {:>8.3}  fresh {:>8.3}  ({:>6.2}x)",
            self.name,
            self.baseline,
            self.fresh,
            self.ratio()
        )
    }
}

/// Scheduler-overhead floor enforced for the batch-engine ratio when either
/// side of the comparison ran on a single core (where no parallel win is
/// physically possible).
pub const BATCH_OVERHEAD_FLOOR: f64 = 0.70;

/// Absolute ceiling on the numerical-health sweep's cost relative to one
/// batched member-iteration: the guard runs every staged iteration, so it
/// must stay noise (< 3%) regardless of runner speed.
pub const HEALTH_SWEEP_OVERHEAD_BOUND: f64 = 0.03;

/// Extract the tracked metrics from the three artifact pairs.  Each
/// argument is the parsed JSON of the corresponding file.
pub fn collect_metrics(
    scoring_baseline: &Json,
    scoring_fresh: &Json,
    ccd_baseline: &Json,
    ccd_fresh: &Json,
    batch_baseline: &Json,
    batch_fresh: &Json,
) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();

    // scoring_pipeline: allocating/workspace speedup per loop length.
    pair_by_key(
        scoring_baseline.get("results"),
        scoring_fresh.get("results"),
        "loop_len",
        "speedup",
        |id, b, f| {
            metrics.push(Metric {
                name: format!("scoring workspace speedup (len {id})"),
                baseline: b,
                fresh: f,
                direction: Direction::HigherIsBetter,
                absolute: false,
            });
        },
    )?;

    // scoring_pipeline: 4-objective vs 3-objective cost ratio (lower is
    // better).  Optional in the baseline for forward compatibility.
    if let (Some(b), Some(f)) = (
        scoring_baseline
            .get("objectives")
            .and_then(|o| o.num("cost_ratio")),
        scoring_fresh
            .get("objectives")
            .and_then(|o| o.num("cost_ratio")),
    ) {
        metrics.push(Metric {
            name: "4-objective eval cost ratio".to_string(),
            baseline: b,
            fresh: f,
            direction: Direction::LowerIsBetter,
            absolute: false,
        });
    }

    // scoring_pipeline: staged batched-pipeline vs per-member-reference
    // trajectory speedup (higher is better).  Optional in the baseline for
    // forward compatibility; once snapshotted it cannot silently regress.
    if let (Some(b), Some(f)) = (
        scoring_baseline
            .get("pipeline")
            .and_then(|o| o.num("speedup")),
        scoring_fresh.get("pipeline").and_then(|o| o.num("speedup")),
    ) {
        metrics.push(Metric {
            name: "batched pipeline speedup".to_string(),
            baseline: b,
            fresh: f,
            direction: Direction::HigherIsBetter,
            absolute: false,
        });
    }

    // scoring_pipeline: numerical-health-sweep overhead per batched
    // member-iteration.  Gated against the absolute 3% bound (the ratio
    // is measured in-process, so no baseline is needed); optional until
    // the artifacts carry the section.
    if let Some(f) = scoring_fresh
        .get("health_sweep")
        .and_then(|o| o.num("overhead_ratio"))
    {
        metrics.push(Metric {
            name: format!("health sweep overhead (bound {HEALTH_SWEEP_OVERHEAD_BOUND})"),
            baseline: HEALTH_SWEEP_OVERHEAD_BOUND,
            fresh: f,
            direction: Direction::LowerIsBetter,
            absolute: true,
        });
    }

    // ccd_closure: incremental-rebuild speedup per loop length.
    pair_by_key(
        ccd_baseline.get("ccd").and_then(|c| c.get("results")),
        ccd_fresh.get("ccd").and_then(|c| c.get("results")),
        "loop_len",
        "speedup",
        |id, b, f| {
            metrics.push(Metric {
                name: format!("ccd incremental speedup (len {id})"),
                baseline: b,
                fresh: f,
                direction: Direction::HigherIsBetter,
                absolute: false,
            });
        },
    )?;

    // ccd_closure: wide-lane SIMD speedup of the batched optimal-rotation
    // kernel (median across lane counts).  Present only when the bench ran
    // with the `simd` feature; optional on both sides so scalar-only runs
    // still gate everything else, but once both artifacts carry it the
    // wide kernels cannot silently regress to scalar speed.
    if let (Some(b), Some(f)) = (
        ccd_baseline.get("simd").and_then(|o| o.num("speedup")),
        ccd_fresh.get("simd").and_then(|o| o.num("speedup")),
    ) {
        metrics.push(Metric {
            name: "simd rotation-kernel speedup".to_string(),
            baseline: b,
            fresh: f,
            direction: Direction::HigherIsBetter,
            absolute: false,
        });
    }

    // ccd_closure: lane-major NeRF spine-rebuild speedup (median across
    // member counts) — the cost that dominates close_batch.  The lane-major
    // side reads its ψ/φ sin/cos from a prefilled trig table, as
    // close_batch does, so the ratio includes that cache.  Present only
    // when the bench ran with the `simd` feature; optional on both sides
    // like the rotation-kernel metric.
    if let (Some(b), Some(f)) = (
        ccd_baseline.get("rebuild").and_then(|o| o.num("speedup")),
        ccd_fresh.get("rebuild").and_then(|o| o.num("speedup")),
    ) {
        metrics.push(Metric {
            name: "simd spine-rebuild speedup".to_string(),
            baseline: b,
            fresh: f,
            direction: Direction::HigherIsBetter,
            absolute: false,
        });
    }

    // ccd_closure: closure-level wide-vs-scalar close_batch speedup per
    // CCD block width.  Rows carry "speedup" only when the bench ran with
    // the `simd` feature; each width present on both sides is gated.
    if let (Some(b_rows), Some(f_rows)) = (
        ccd_baseline
            .get("blocks")
            .and_then(|c| c.get("results"))
            .and_then(Json::as_array),
        ccd_fresh
            .get("blocks")
            .and_then(|c| c.get("results"))
            .and_then(Json::as_array),
    ) {
        for row in b_rows {
            let (Some(id), Some(b)) = (row.num("block_width"), row.num("speedup")) else {
                continue;
            };
            if let Some(f) = f_rows
                .iter()
                .find(|r| r.num("block_width") == Some(id))
                .and_then(|r| r.num("speedup"))
            {
                metrics.push(Metric {
                    name: format!("close_batch wide speedup (w{})", id as i64),
                    baseline: b,
                    fresh: f,
                    direction: Direction::HigherIsBetter,
                    absolute: false,
                });
            }
        }
    }

    // ccd_closure: cell-list speedup per environment factor.
    pair_by_key(
        ccd_baseline.get("vdw_env").and_then(|c| c.get("results")),
        ccd_fresh.get("vdw_env").and_then(|c| c.get("results")),
        "env_factor",
        "speedup",
        |id, b, f| {
            metrics.push(Metric {
                name: format!("vdw_env cell-list speedup (x{id})"),
                baseline: b,
                fresh: f,
                direction: Direction::HigherIsBetter,
                absolute: false,
            });
        },
    )?;

    // ccd_closure: per-residue candidate-window speedup over per-site
    // cell-list queries (median across environment factors).  Optional on
    // both sides for forward compatibility.
    if let (Some(b), Some(f)) = (
        ccd_baseline
            .get("vdw_env")
            .and_then(|o| o.num("window_speedup")),
        ccd_fresh
            .get("vdw_env")
            .and_then(|o| o.num("window_speedup")),
    ) {
        metrics.push(Metric {
            name: "vdw_env per-residue-window speedup".to_string(),
            baseline: b,
            fresh: f,
            direction: Direction::HigherIsBetter,
            absolute: false,
        });
    }

    // batch_engine: sequential/batch speedup.  On a 1-core runner (either
    // side) no scheduling win is physically possible — enforce only the
    // scheduler-overhead floor.
    let fresh_speedup = batch_fresh
        .num("speedup")
        .ok_or("batch fresh artifact missing \"speedup\"")?;
    let baseline_speedup = batch_baseline
        .num("speedup")
        .ok_or("batch baseline artifact missing \"speedup\"")?;
    let one_core = batch_fresh.num("host_cores").unwrap_or(1.0) <= 1.0
        || batch_baseline.num("host_cores").unwrap_or(1.0) <= 1.0;
    if one_core {
        metrics.push(Metric {
            name: format!("batch speedup (1-core floor {BATCH_OVERHEAD_FLOOR})"),
            baseline: BATCH_OVERHEAD_FLOOR,
            fresh: fresh_speedup,
            direction: Direction::HigherIsBetter,
            absolute: true,
        });
    } else {
        metrics.push(Metric {
            name: "batch engine speedup".to_string(),
            baseline: baseline_speedup,
            fresh: fresh_speedup,
            direction: Direction::HigherIsBetter,
            absolute: false,
        });
    }

    Ok(metrics)
}

/// Walk two parallel result arrays matched by an integer `key` field and
/// hand each matched pair's `field` values to `emit`.  A baseline row with
/// no matching fresh row is an error (the bench stopped covering a tracked
/// point); extra fresh rows are fine (new coverage is not gated yet).
fn pair_by_key(
    baseline: Option<&Json>,
    fresh: Option<&Json>,
    key: &str,
    field: &str,
    mut emit: impl FnMut(i64, f64, f64),
) -> Result<(), String> {
    let baseline = baseline
        .and_then(Json::as_array)
        .ok_or_else(|| format!("baseline artifact missing results array keyed by {key:?}"))?;
    let fresh = fresh
        .and_then(Json::as_array)
        .ok_or_else(|| format!("fresh artifact missing results array keyed by {key:?}"))?;
    for row in baseline {
        let id = row
            .num(key)
            .ok_or_else(|| format!("baseline row missing {key:?}"))? as i64;
        let b = row
            .num(field)
            .ok_or_else(|| format!("baseline row missing {field:?}"))?;
        let f = fresh
            .iter()
            .find(|r| r.num(key).map(|v| v as i64) == Some(id))
            .and_then(|r| r.num(field))
            .ok_or_else(|| format!("fresh artifact lost tracked point {key}={id}"))?;
        emit(id, b, f);
    }
    Ok(())
}

/// Run the gate over parsed artifacts: returns the per-metric report and
/// the list of regressions at `tolerance`.
pub fn gate(
    scoring_baseline: &Json,
    scoring_fresh: &Json,
    ccd_baseline: &Json,
    ccd_fresh: &Json,
    batch_baseline: &Json,
    batch_fresh: &Json,
    tolerance: f64,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let metrics = collect_metrics(
        scoring_baseline,
        scoring_fresh,
        ccd_baseline,
        ccd_fresh,
        batch_baseline,
        batch_fresh,
    )?;
    let regressions: Vec<Metric> = metrics
        .iter()
        .filter(|m| m.regressed(tolerance))
        .cloned()
        .collect();
    Ok((metrics, regressions))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCORING: &str = r#"{
      "benchmark": "scoring_pipeline", "unit": "ns/eval",
      "results": [
        {"loop_len": 4, "allocating_ns_per_eval": 29688.8, "workspace_ns_per_eval": 4289.0, "speedup": 6.922},
        {"loop_len": 8, "allocating_ns_per_eval": 67724.5, "workspace_ns_per_eval": 13630.1, "speedup": 4.969}
      ],
      "objectives": {"env_factor": 10, "three_objective_ns_per_eval": 10000.0,
                     "four_objective_ns_per_eval": 11000.0, "cost_ratio": 1.100},
      "pipeline": {"loop_len": 12, "population": 32, "iterations": 6,
                   "per_member_ns_per_member_iter": 600000.0,
                   "batched_ns_per_member_iter": 400000.0, "speedup": 1.500}
    }"#;

    const CCD: &str = r#"{
      "benchmark": "ccd_closure", "unit": "ns",
      "ccd": {"results": [
        {"loop_len": 4, "speedup": 1.543}, {"loop_len": 8, "speedup": 1.660}
      ]},
      "vdw_env": {"results": [
        {"env_factor": 1, "speedup": 1.185, "window_speedup": 1.7},
        {"env_factor": 10, "speedup": 10.366, "window_speedup": 1.9}
      ], "window_speedup": 1.800},
      "blocks": {"results": [
        {"block_width": 4, "scalar_ns_per_member": 100.0},
        {"block_width": 8, "scalar_ns_per_member": 100.0, "wide_ns_per_member": 80.0, "speedup": 1.250}
      ]},
      "rebuild": {"isa": "sse2+avx2", "speedup": 1.600},
      "simd": {"lane_width": 4, "speedup": 1.320}
    }"#;

    const BATCH_1CORE: &str = r#"{"benchmark": "batch_engine", "host_cores": 1, "speedup": 0.958}"#;
    const BATCH_8CORE: &str = r#"{"benchmark": "batch_engine", "host_cores": 8, "speedup": 4.1}"#;

    fn j(s: &str) -> Json {
        Json::parse(s).expect("valid test JSON")
    }

    #[test]
    fn parser_round_trips_the_artifact_shapes() {
        let v = j(SCORING);
        assert_eq!(v.num("unit"), None);
        assert_eq!(
            v.get("results").unwrap().as_array().unwrap()[1].num("loop_len"),
            Some(8.0)
        );
        assert_eq!(v.get("objectives").unwrap().num("cost_ratio"), Some(1.100));
        assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert_eq!(j("[true, false, null]").as_array().unwrap().len(), 3);
        assert_eq!(j("\"a\\\"b\""), Json::Str("a\"b".to_string()));
    }

    #[test]
    fn identical_artifacts_pass() {
        let (metrics, regressions) = gate(
            &j(SCORING),
            &j(SCORING),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        // 2 scoring speedups + cost ratio + pipeline + 2 ccd + rebuild
        // + blocks w8 + simd + 2 vdw_env + window + batch floor.
        assert_eq!(metrics.len(), 13);
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn batched_pipeline_regression_fails_the_gate() {
        // Losing the batching win (1.50 → 1.05, i.e. −30%) must trip the
        // 25% gate.
        let degraded = SCORING.replace("\"speedup\": 1.500", "\"speedup\": 1.05");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(&degraded),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("pipeline"));
        // A baseline without the pipeline section is still accepted (the
        // metric is optional until snapshotted).
        let legacy = SCORING.replace(
            ",\n      \"pipeline\": {\"loop_len\": 12, \"population\": 32, \"iterations\": 6,\n                   \"per_member_ns_per_member_iter\": 600000.0,\n                   \"batched_ns_per_member_iter\": 400000.0, \"speedup\": 1.500}",
            "",
        );
        assert_ne!(legacy, SCORING, "fixture surgery failed");
        let (metrics, regressions) = gate(
            &j(&legacy),
            &j(SCORING),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(metrics.len(), 12);
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn simd_kernel_regression_fails_the_gate() {
        // The wide kernels decaying to below scalar speed (1.32 → 0.90,
        // i.e. −32%) must trip the 25% gate.
        let degraded = CCD.replace("\"speedup\": 1.320", "\"speedup\": 0.90");
        assert_ne!(degraded, CCD, "fixture surgery failed");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(SCORING),
            &j(CCD),
            &j(&degraded),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("simd"));
        // A fresh artifact from a scalar-only bench run has no "simd"
        // section: the metric is skipped, everything else still gates.
        let scalar_only = CCD.replace(
            ",\n      \"simd\": {\"lane_width\": 4, \"speedup\": 1.320}",
            "",
        );
        assert_ne!(scalar_only, CCD, "fixture surgery failed");
        let (metrics, regressions) = gate(
            &j(SCORING),
            &j(SCORING),
            &j(CCD),
            &j(&scalar_only),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(metrics.len(), 12);
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn spine_rebuild_and_window_regressions_fail_the_gate() {
        // The lane-major rebuild decaying to below scalar speed (1.60 →
        // 1.00, i.e. −38%) must trip the 25% gate.
        let degraded = CCD.replace(
            "\"rebuild\": {\"isa\": \"sse2+avx2\", \"speedup\": 1.600}",
            "\"rebuild\": {\"isa\": \"sse2+avx2\", \"speedup\": 1.000}",
        );
        assert_ne!(degraded, CCD, "fixture surgery failed");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(SCORING),
            &j(CCD),
            &j(&degraded),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("spine-rebuild"));
        // Likewise the per-residue-window pass falling back to per-site
        // cost (1.80 → 1.00) and the closure-level close_batch win
        // evaporating (1.25 → 0.90).
        let degraded = CCD
            .replace("\"window_speedup\": 1.800", "\"window_speedup\": 1.000")
            .replace("\"speedup\": 1.250", "\"speedup\": 0.900");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(SCORING),
            &j(CCD),
            &j(&degraded),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(regressions.len(), 2);
        assert!(regressions.iter().any(|m| m.name.contains("close_batch")));
        assert!(regressions.iter().any(|m| m.name.contains("window")));
    }

    #[test]
    fn degraded_fresh_speedup_fails_the_gate() {
        // A fresh run that lost the len-8 workspace speedup (4.97 → 2.0,
        // i.e. −60%) must trip the 25% gate.
        let degraded = SCORING.replace("\"speedup\": 4.969", "\"speedup\": 2.0");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(&degraded),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("len 8"));
    }

    #[test]
    fn inflated_baseline_fails_the_gate() {
        // Equivalently, an artificially inflated baseline (the PR's
        // verification scenario): raise the committed len-4 baseline far
        // above what the real pipeline measures.
        let inflated = SCORING.replace("\"speedup\": 6.922", "\"speedup\": 40.0");
        let (_, regressions) = gate(
            &j(&inflated),
            &j(SCORING),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("len 4"));
    }

    #[test]
    fn cost_ratio_regression_fails_the_gate() {
        // The 4-objective eval getting relatively more expensive than the
        // baseline recorded (1.10 → 1.45 is a +32% cost regression).
        let worse = SCORING.replace("\"cost_ratio\": 1.100", "\"cost_ratio\": 1.450");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(&worse),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("cost ratio"));
    }

    #[test]
    fn health_sweep_overhead_is_gated_against_the_absolute_bound() {
        // A fresh artifact carrying the health_sweep section adds one
        // metric; within the 3% bound it passes…
        let with_sweep = SCORING.replace(
            "\"pipeline\": {",
            "\"health_sweep\": {\"population\": 32, \"sweep_ns_per_member\": 120.0,
                   \"batched_ns_per_member_iter\": 400000.0, \"overhead_ratio\": 0.0003},
      \"pipeline\": {",
        );
        assert_ne!(with_sweep, SCORING, "fixture surgery failed");
        let (metrics, regressions) = gate(
            &j(SCORING),
            &j(&with_sweep),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert_eq!(metrics.len(), 14);
        assert!(regressions.is_empty(), "{regressions:?}");
        // …and past the bound it fails, no matter the tolerance: the
        // bound is absolute, so even a huge tolerance cannot excuse it.
        let blown = with_sweep.replace("\"overhead_ratio\": 0.0003", "\"overhead_ratio\": 0.05");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(&blown),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            5.0,
        )
        .unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("health sweep"));
    }

    #[test]
    fn small_noise_within_tolerance_passes() {
        let noisy = SCORING
            .replace("\"speedup\": 6.922", "\"speedup\": 5.9")
            .replace("\"cost_ratio\": 1.100", "\"cost_ratio\": 1.30");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(&noisy),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn one_core_batch_runs_only_enforce_the_overhead_floor() {
        // A 1-core fresh run with ratio 0.96 passes even against a
        // multi-core baseline…
        let (_, regressions) = gate(
            &j(SCORING),
            &j(SCORING),
            &j(CCD),
            &j(CCD),
            &j(BATCH_8CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
        // …but a run whose scheduler overhead blows past the floor fails.
        let pathological = BATCH_1CORE.replace("\"speedup\": 0.958", "\"speedup\": 0.5");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(SCORING),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(&pathological),
            0.25,
        )
        .unwrap();
        assert_eq!(regressions.len(), 1);
        // Multi-core vs multi-core compares ratios normally.
        let slow = BATCH_8CORE.replace("\"speedup\": 4.1", "\"speedup\": 2.0");
        let (_, regressions) = gate(
            &j(SCORING),
            &j(SCORING),
            &j(CCD),
            &j(CCD),
            &j(BATCH_8CORE),
            &j(&slow),
            0.25,
        )
        .unwrap();
        assert_eq!(regressions.len(), 1);
    }

    #[test]
    fn losing_a_tracked_point_is_an_error() {
        let truncated = SCORING.replace(
            ",\n        {\"loop_len\": 8, \"allocating_ns_per_eval\": 67724.5, \"workspace_ns_per_eval\": 13630.1, \"speedup\": 4.969}",
            "",
        );
        assert!(gate(
            &j(SCORING),
            &j(&truncated),
            &j(CCD),
            &j(CCD),
            &j(BATCH_1CORE),
            &j(BATCH_1CORE),
            0.25,
        )
        .is_err());
    }
}

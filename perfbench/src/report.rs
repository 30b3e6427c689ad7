//! Quantiles, the result stamp, the per-layer table, and the JSON line.

use crate::drive::{Phase, Sample, SHARDS, WORKERS_PER_SHARD};
use crate::inputs::{Inputs, Kind};
use crate::replay::{Layer, Replay};
use causality_service::{RequestTrace, ServiceStats, Stage};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Linear-interpolated quantile (`q` in [0, 1]); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples per block of [`block_p99`]: ten beyond the p99 of each block.
pub const P99_BLOCK: usize = 1000;

/// p99 of each block of [`P99_BLOCK`] consecutive samples (in send
/// order), and the median across blocks with the block count. A host
/// stall then moves one block's p99, not the reported value. Fewer than
/// one block's samples fall back to the p99 of all of them.
pub fn block_p99(samples: &[Sample]) -> (f64, usize) {
    let mut ordered: Vec<&Sample> = samples.iter().collect();
    ordered.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let blocks: Vec<f64> = ordered
        .chunks_exact(P99_BLOCK)
        .map(|block| {
            let lat: Vec<f64> = block.iter().map(|s| s.latency_us).collect();
            quantile(&lat, 0.99)
        })
        .collect();
    if blocks.is_empty() {
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        return (quantile(&lat, 0.99), 1);
    }
    (median(&blocks), blocks.len())
}

/// Completion rate measured over consecutive blocks of completions
/// (at least [`RATE_BLOCKS`] blocks), and the median across blocks.
pub fn block_rate(samples: &[Sample]) -> f64 {
    let mut done: Vec<f64> = samples
        .iter()
        .map(|s| s.at_s + s.latency_us / 1e6)
        .collect();
    done.sort_by(f64::total_cmp);
    let per_block = (done.len() / RATE_BLOCKS).max(1);
    let rates: Vec<f64> = done
        .windows(per_block + 1)
        .step_by(per_block)
        .map(|w| per_block as f64 / (w[per_block] - w[0]))
        .filter(|r| r.is_finite())
        .collect();
    median(&rates)
}

/// Blocks [`block_rate`] splits a phase's completions into.
pub const RATE_BLOCKS: usize = 20;

fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

pub fn print_metrics(metrics: &[Metric], extra: &[Metric]) {
    for m in metrics.iter().chain(extra) {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

/// The checkout's commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// This process's user + system CPU seconds, from `getrusage`.
pub fn cpu_seconds() -> f64 {
    // struct rusage on 64-bit Linux: ru_utime and ru_stime (two
    // timevals), then 14 longs.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size the kernel fills.
    if unsafe { getrusage(0, &mut usage) } != 0 {
        return 0.0;
    }
    let u = &usage.0;
    (u[0] + u[2]) as f64 + (u[1] + u[3]) as f64 / 1e6
}

/// Peak resident set size of this process in MB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` is no use here: it
/// keeps the parent's resident set at `exec`, so under `cargo run` it
/// reports cargo's own size whenever the benchmark's is smaller.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Everything the traced run measured, per layer.
pub struct LayerReport {
    metrics: Vec<Metric>,
    rows: Vec<Row>,
    shares: Vec<(Layer, f64)>,
    compute_us: f64,
    e2e_p50_us: f64,
    compute_p50_us: f64,
    miss_compute_p50_us: f64,
    overhead_us: f64,
    tier_compute_us: f64,
}

struct Row {
    layer: String,
    count: String,
    busy: String,
    wait: String,
    useful: String,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl LayerReport {
    pub fn new(
        inputs: &Inputs,
        u: &Phase,
        t: &Phase,
        u_stats: &ServiceStats,
        traces: &[RequestTrace],
        rep: &Replay,
    ) -> LayerReport {
        let per_req = |x: f64| ratio(x, rep.requests as f64);
        let per_q = |x: u64| ratio(x as f64, inputs.questions.len() as f64);
        let layer_us = |l: Layer| per_req(rep.layer(l).self_us);

        let u_lat: Vec<f64> = u.samples.iter().map(|s| s.latency_us).collect();
        let t_lat: Vec<f64> = t.samples.iter().map(|s| s.latency_us).collect();
        let e2e_p50_us = median(&u_lat);
        let traced_p50 = median(&t_lat);

        // Tier overhead per request: its latency minus the replayed core
        // compute of the same question (zero for LRU hits).
        let computed: Vec<f64> = u
            .samples
            .iter()
            .map(|s| {
                if s.cache_hit {
                    0.0
                } else {
                    rep.compute_us[s.question]
                }
            })
            .collect();
        let overhead: Vec<f64> = u
            .samples
            .iter()
            .zip(&computed)
            .map(|(s, c)| s.latency_us - c)
            .collect();
        let misses: Vec<f64> = u
            .samples
            .iter()
            .filter(|s| !s.cache_hit)
            .map(|s| rep.compute_us[s.question])
            .collect();

        // Queue wait and worker compute from the tier's own spans.
        let queue: Vec<f64> = traces
            .iter()
            .filter_map(|tr| tr.stage(Stage::ShardQueue))
            .map(|s| s.dur_us as f64)
            .collect();
        let worker_stages = [
            Stage::SnapshotPin,
            Stage::LineageIntern,
            Stage::KernelSolve,
            Stage::ApproxRefine,
        ];
        let fresh: Vec<&RequestTrace> = traces
            .iter()
            .filter(|tr| !tr.cache_hit && !tr.coalesced && tr.outcome == "ok")
            .collect();
        let busy_us: f64 = fresh
            .iter()
            .flat_map(|tr| worker_stages.iter().filter_map(|&st| tr.stage(st)))
            .map(|s| s.dur_us as f64)
            .sum();
        let tier_compute_us = ratio(
            fresh
                .iter()
                .flat_map(|tr| {
                    [
                        Stage::LineageIntern,
                        Stage::KernelSolve,
                        Stage::ApproxRefine,
                    ]
                    .into_iter()
                    .filter_map(|st| tr.stage(st))
                })
                .map(|s| s.dur_us as f64)
                .sum(),
            fresh.len() as f64,
        );
        let busy_share = ratio(
            busy_us,
            t.elapsed_s * 1e6 * (SHARDS * WORKERS_PER_SHARD) as f64,
        );

        let c = &rep.counters;
        let lookups = (u_stats.cache_hits + u_stats.cache_misses) as f64;
        let metrics = vec![
            Metric::new("frontend.submit_us", median(&u.submit_us), "us"),
            Metric::new(
                "frontend.rejects",
                u_stats.admission_rejects as f64,
                "count",
            ),
            Metric::new("shard.queue_wait_p50_us", median(&queue), "us"),
            Metric::new("shard.queue_wait_p99_us", quantile(&queue, 0.99), "us"),
            Metric::new("worker.busy_share", busy_share, "fraction"),
            Metric::new("worker.batch_mean", u_stats.mean_batch_size(), "count"),
            Metric::new(
                "worker.coalesced_share",
                ratio(u_stats.coalesced as f64, u_stats.requests as f64),
                "fraction",
            ),
            Metric::new(
                "lru.hit_rate",
                ratio(u_stats.cache_hits as f64, lookups),
                "fraction",
            ),
            Metric::new("snapshot.update_us", median(&u.update_us), "us"),
            Metric::new("eval.self_us", layer_us(Layer::Eval), "us"),
            Metric::new("eval.valuations", per_q(c.valuations), "count"),
            Metric::new("eval.index_builds", per_q(c.index_builds), "count"),
            Metric::new("lineage.build_us", layer_us(Layer::Lineage), "us"),
            Metric::new("lineage.conjuncts", per_q(c.raw_conjuncts), "count"),
            Metric::new("arena.intern_us", layer_us(Layer::Intern), "us"),
            Metric::new("arena.minimize_us", layer_us(Layer::Minimize), "us"),
            Metric::new(
                "arena.kept_share",
                ratio(c.kept_conjuncts as f64, c.raw_conjuncts as f64),
                "fraction",
            ),
            Metric::new("causes.candidates", per_q(c.candidates), "count"),
            Metric::new("dichotomy.classify_us", layer_us(Layer::Classify), "us"),
            Metric::new("flow.solve_us", layer_us(Layer::Flow), "us"),
            Metric::new("flow.runs", per_q(c.flow_runs), "count"),
            Metric::new("flow.paths", per_q(c.flow_paths), "count"),
            Metric::new("flow.edges", per_q(c.flow_edges), "count"),
            Metric::new("approx.greedy_us", layer_us(Layer::Greedy), "us"),
            Metric::new("approx.refine_us", layer_us(Layer::Refine), "us"),
            Metric::new(
                "approx.refinements",
                ratio(
                    u_stats.approx_refinements as f64,
                    u_stats.approx_requests as f64,
                ),
                "count",
            ),
            Metric::new(
                "approx.collapsed_share",
                ratio(c.collapsed as f64, c.approx_causes as f64),
                "fraction",
            ),
            Metric::new(
                "approx.deadline_met_share",
                ratio(u.deadline_met as f64, u.deadline_asked as f64),
                "fraction",
            ),
            Metric::new(
                "approx.rho_width_mean",
                ratio(u.width_sum, u.widths as f64),
                "rho",
            ),
            Metric::new("whyno.solve_us", layer_us(Layer::WhyNo), "us"),
            Metric::new(
                "ranking.topk_pruned_share",
                ratio(c.topk_pruned as f64, c.topk_candidates as f64),
                "fraction",
            ),
            Metric::new(
                "telemetry.overhead_share",
                ratio(traced_p50 - e2e_p50_us, e2e_p50_us),
                "fraction",
            ),
            Metric::new("tier.overhead_us", median(&overhead), "us"),
            Metric::new("core.compute_us", rep.compute_per_request_us(), "us"),
            Metric::new("generator.lag_p99_us", quantile(&u.lag_us, 0.99), "us"),
        ];

        let compute_us = rep.compute_per_request_us();
        let shares = Layer::ALL
            .iter()
            .map(|&l| (l, ratio(layer_us(l), compute_us)))
            .collect();
        let fmt_opt = |x: f64, unit: &str| format!("{x:.1} {unit}");
        let mut rows = vec![
            Row {
                layer: "service::frontend (submit)".into(),
                count: u.submit_us.len().to_string(),
                busy: fmt_opt(median(&u.submit_us), "us p50"),
                wait: "-".into(),
                useful: format!(
                    "{:.3} accepted",
                    1.0 - ratio(u_stats.admission_rejects as f64, u.submit_us.len() as f64)
                ),
            },
            Row {
                layer: "service::shard (queue)".into(),
                count: queue.len().to_string(),
                busy: "-".into(),
                wait: format!(
                    "{:.1}/{:.1} us p50/p99",
                    median(&queue),
                    quantile(&queue, 0.99)
                ),
                useful: "-".into(),
            },
            Row {
                layer: "service::worker".into(),
                count: format!("{} batches", u_stats.batches),
                busy: format!("{:.3} busy", busy_share),
                wait: "-".into(),
                useful: format!(
                    "{:.3} computed",
                    1.0 - ratio(
                        (u_stats.coalesced + u_stats.cache_hits) as f64,
                        u_stats.requests as f64
                    )
                ),
            },
            Row {
                layer: "service::lru".into(),
                count: format!("{lookups} lookups"),
                busy: "-".into(),
                wait: "-".into(),
                useful: format!("{:.3} hits", ratio(u_stats.cache_hits as f64, lookups)),
            },
            Row {
                layer: "engine::snapshot (update)".into(),
                count: u.update_us.len().to_string(),
                busy: fmt_opt(median(&u.update_us), "us p50"),
                wait: "-".into(),
                useful: "-".into(),
            },
        ];
        for &l in &Layer::ALL {
            let acc = rep.layer(l);
            let useful = match l {
                Layer::Minimize => format!(
                    "{:.3} kept",
                    ratio(c.kept_conjuncts as f64, c.raw_conjuncts as f64)
                ),
                Layer::Refine => format!(
                    "{:.3} collapsed",
                    ratio(c.collapsed as f64, c.approx_causes as f64)
                ),
                Layer::Ranking => format!(
                    "{:.3} solved",
                    1.0 - ratio(c.topk_pruned as f64, c.topk_candidates as f64)
                ),
                _ => "-".into(),
            };
            rows.push(Row {
                layer: l.module().into(),
                count: acc.calls.to_string(),
                busy: fmt_opt(layer_us(l), "us/req"),
                wait: "0".into(),
                useful,
            });
        }
        rows.push(Row {
            layer: "telemetry".into(),
            count: traces.len().to_string(),
            busy: format!("{:+.3} of p50", ratio(traced_p50 - e2e_p50_us, e2e_p50_us)),
            wait: "-".into(),
            useful: "-".into(),
        });
        rows.push(Row {
            layer: "tier overhead".into(),
            count: overhead.len().to_string(),
            busy: fmt_opt(median(&overhead), "us p50"),
            wait: "-".into(),
            useful: "-".into(),
        });

        LayerReport {
            metrics,
            rows,
            shares,
            compute_us,
            e2e_p50_us,
            compute_p50_us: median(&computed),
            miss_compute_p50_us: median(&misses),
            overhead_us: median(&overhead),
            tier_compute_us,
        }
    }

    pub fn metrics(self) -> Vec<Metric> {
        self.metrics
    }

    pub fn print_table(&self, kind: Kind) {
        println!(
            "{:<30} {:>14} {:>18} {:>26} {:>16}",
            "layer", "count", "busy", "wait", "useful/attempted"
        );
        for r in &self.rows {
            println!(
                "{:<30} {:>14} {:>18} {:>26} {:>16}",
                r.layer, r.count, r.busy, r.wait, r.useful
            );
        }
        let share = |l: Layer| {
            self.shares
                .iter()
                .find(|(x, _)| *x == l)
                .map_or(0.0, |(_, s)| *s)
        };
        println!("# core compute {:.1} us/request; shares:", self.compute_us);
        for (l, s) in &self.shares {
            if *s > 0.0 {
                println!("#   {:<30} {:>6.1}%", l.module(), s * 100.0);
            }
        }
        let (label, value, floor) = match kind {
            Kind::ImdbWhySo => ("core::resp::flow", share(Layer::Flow), 0.80),
            Kind::ImdbWhyNo => (
                "engine::eval + lineage build + lineage::arena",
                share(Layer::Eval)
                    + share(Layer::Lineage)
                    + share(Layer::Intern)
                    + share(Layer::Minimize),
                0.70,
            ),
            Kind::HardTriangles => (
                "core::resp::approx",
                share(Layer::Greedy) + share(Layer::Refine),
                0.80,
            ),
            Kind::TenantMix => (
                "tier.overhead_us / core compute p50 of computed requests",
                ratio(self.overhead_us, self.miss_compute_p50_us),
                1.0,
            ),
        };
        println!(
            "# predicted split: {label} = {value:.3} (predicted >= {floor}): {}",
            if value >= floor {
                "confirmed"
            } else {
                "NOT confirmed"
            }
        );
        // Σ self time + tier overhead against the end-to-end p50.
        let sum = self.compute_p50_us + self.overhead_us;
        let residual = ratio(sum - self.e2e_p50_us, self.e2e_p50_us);
        println!(
            "# sum check: core p50 {:.1} + tier.overhead_us {:.1} = {:.1} us vs latency_p50 {:.1} us \
             ({:+.1}%, tolerance 25%): {}",
            self.compute_p50_us,
            self.overhead_us,
            sum,
            self.e2e_p50_us,
            residual * 100.0,
            if residual.abs() <= 0.25 { "ok" } else { "outside" }
        );
        println!(
            "# replay vs tier: replayed core {:.1} us/request, tier-side lineage+solve spans {:.1} us \
             per fresh computation",
            self.compute_us, self.tier_compute_us
        );
    }
}

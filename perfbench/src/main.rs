//! perfbench — the dichotomy-split serving benchmark.
//!
//! ```text
//! perfbench --workload <tenant_mix|imdb_whyso|imdb_whyno|hard_triangles>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the tier up several times (reporting the median
//! set-up time), computes a reference answer per question with
//! `Explainer`, then drives the public `ShardedService` API with tracing
//! off for `--seconds` and prints the end-to-end metrics (`tenant_mix`:
//! an open loop, then a capacity phase that gives the gated figures).
//! The gated timings are scaled to a reference host speed by a probe
//! timed alongside them (see `probe`); the raw ones are printed too.
//! `--trace 1`
//! splits the same time between an untraced phase, a fully traced phase
//! (queue wait from the tier's own spans, tracing overhead as the p50
//! difference), and a single-threaded replay that times each layer's
//! public entry points, and prints the per-layer table and metrics.
//!
//! Every response is checked against its reference and against the
//! workload's routing promises; any failure makes the command exit 1.
//! The last line of standard output is one JSON object.

mod drive;
mod inputs;
mod probe;
mod replay;
mod report;

use drive::{Cursor, Phase, Tier};
use inputs::{Inputs, Kind, Reference};
use report::{median, quantile, Metric};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// `tenant_mix` offered load of the open loop: fixed, and well below the
/// capacity the second phase measures (12k–50k ops/s on a 2-core host,
/// between noisy and quiet spells of a shared machine).
const MIX_RATE: f64 = 3000.0;
/// `tenant_mix` capacity phase: requests kept in flight. Its p50 is the
/// gated `latency_p50_us`: about this window times the tier's service
/// time per request.
const MIX_WINDOW: usize = 32;
/// Share of a `tenant_mix` run spent in the open loop (the rest is the
/// capacity phase).
const MIX_OPEN_SHARE: f64 = 0.3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The CPU a one-client workload is confined to.
    pinned: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let kind = Kind::from_name(&name).ok_or_else(|| {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    Ok(Args {
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pinned: None,
    })
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // One request is in flight at a time on the one-client loops, so
    // confining them to one CPU costs no parallelism, and the probe then
    // times the CPU the busy worker runs on.
    if args.kind != Kind::TenantMix {
        args.pinned = probe::pin_to_first_cpu();
    }
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    println!("{}", outcome.json());
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed: {}",
            outcome.failed,
            outcome.attempted,
            outcome.first_failure.as_deref().unwrap_or("?")
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// What the last line of standard output reports.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        report::result_json(self.failed == 0, self.attempted, self.failed, &self.metrics)
    }
}

/// Generate the inputs and bring a warm tier up; the time this takes is
/// one `setup_s` sample.
fn set_up(kind: Kind, seeds: &[u64], traced: bool) -> (Inputs, Tier, f64) {
    let started = Instant::now();
    let inputs = inputs::generate_inputs(kind, seeds);
    let tier = drive::start_tier(&inputs, traced);
    (inputs, tier, started.elapsed().as_secs_f64())
}

/// The workload's own load shape: the open loop for `tenant_mix`, the
/// one-client closed loop otherwise. The traced run drives only this.
fn drive_phase(
    tier: &Tier,
    inputs: &Inputs,
    refs: &[Reference],
    cursor: &mut Cursor,
    seconds: f64,
) -> Phase {
    let duration = Duration::from_secs_f64(seconds);
    match inputs.kind {
        Kind::TenantMix => drive::open_loop(tier, inputs, refs, cursor, MIX_RATE, duration),
        _ => drive::closed_loop(tier, inputs, refs, cursor, duration),
    }
}

fn stamp(args: &Args, inputs: &Inputs) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench {} seed={} seconds={} trace={} rev={} nproc={nproc}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::git_rev()
    );
    println!(
        "# tier: {} shards x {} worker, rank_parallelism {}, batch_max {}, lru {} entries, sample_rate {}",
        drive::SHARDS,
        drive::WORKERS_PER_SHARD,
        drive::RANK_PARALLELISM,
        drive::tier_config(false).shard.batch_max,
        drive::tier_config(false).shard.cache_capacity,
        if args.trace { "0 then 1" } else { "0" }
    );
    let load = match args.kind {
        Kind::TenantMix => format!(
            "open loop at {MIX_RATE} ops/s for {:.0}% of the run, then a closed-loop capacity phase \
             with {MIX_WINDOW} in flight",
            MIX_OPEN_SHARE * 100.0
        ),
        _ => "closed loop, one client".to_string(),
    };
    println!("# load: {load}");
    let pinned = args
        .pinned
        .map_or("all CPUs".to_string(), |cpu| format!("pinned to CPU {cpu}"));
    println!(
        "# host: {pinned}; probe every {} ms, scaled to a {} us reference probe",
        probe::EVERY.as_millis(),
        probe::REFERENCE_US
    );
    println!(
        "# inputs: {} (hash {:016x})",
        inputs.sizes,
        inputs::input_hash(inputs)
    );
}

fn timed_run(args: &Args) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut scaled_setups = Vec::with_capacity(SETUP_REPS);
    let seeds = inputs::tenant_seeds(args.kind, args.seed);
    let mut kept: Option<(Inputs, Tier)> = None;
    let mut peak_rss_mb = 0.0;
    for rep in 0..SETUP_REPS {
        // One set-up alive at a time.
        if let Some((_, old)) = kept.take() {
            old.service.shutdown();
        }
        let host = probe::sample();
        let (inputs, tier, secs) = set_up(args.kind, &seeds, false);
        setups.push(secs);
        scaled_setups.push(secs * probe::scale(&host, probe::Typical::Mean));
        if rep == 0 {
            // The inputs and one warm tier: later set-ups leave freed
            // memory behind that adds to the peak at random, and the timed
            // phase's sample buffers grow with throughput.
            peak_rss_mb = report::peak_rss_mb();
        }
        kept = Some((inputs, tier));
    }
    let (inputs, tier) = kept.expect("at least one set-up");
    stamp(args, &inputs);
    let refs = inputs::references(&inputs);

    let mut cursor = Cursor::default();
    let cpu_before = report::cpu_seconds();
    // `tenant_mix` runs its open loop first (reported, not gated), then
    // the capacity phase that gives the gated figures; the closed loops
    // run one phase for the whole time.
    let open = (args.kind == Kind::TenantMix).then(|| {
        drive_phase(
            &tier,
            &inputs,
            &refs,
            &mut cursor,
            args.seconds * MIX_OPEN_SHARE,
        )
    });
    let mut phase = match open {
        Some(_) => drive::capacity(
            &tier,
            &inputs,
            &refs,
            &mut cursor,
            MIX_WINDOW,
            Duration::from_secs_f64(args.seconds * (1.0 - MIX_OPEN_SHARE)),
        ),
        None => drive_phase(&tier, &inputs, &refs, &mut cursor, args.seconds),
    };
    let cpu_s = report::cpu_seconds() - cpu_before;
    let stats = tier.service.stats().aggregate();
    tier.service.shutdown();
    let (open_lat, lag_us) = match open {
        Some(open) => {
            phase.attempted += open.attempted;
            phase.fails.merge(open.fails);
            phase.update_us.extend(open.update_us);
            let lat: Vec<f64> = open.samples.iter().map(|s| s.latency_us).collect();
            (lat, open.lag_us)
        }
        None => (Vec::new(), Vec::new()),
    };
    drive::check_routing(args.kind, &stats, &mut phase.fails);

    let latencies: Vec<f64> = phase.samples.iter().map(|s| s.latency_us).collect();
    let (p99, blocks) = report::block_p99(&phase.samples);
    let failed = phase.fails.total();
    let attempted = phase.attempted.max(1);
    // The capacity phase's p50 is set by its throughput, an average over
    // the run; a one-client p50 by a typical request on its one CPU.
    let typical = match args.kind {
        Kind::TenantMix => probe::Typical::Mean,
        _ => probe::Typical::Median,
    };
    let metrics = vec![
        Metric::new(
            "latency_p50_norm_us",
            median(&latencies) * probe::scale(&phase.probe_us, typical),
            "us",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("setup_s", median(&scaled_setups), "s"),
    ];
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut extra = vec![
        Metric::new("latency_p50_us", median(&latencies), "us"),
        Metric::new("setup_raw_s", median(&setups), "s"),
        Metric::new(
            "probe_us",
            probe::REFERENCE_US / probe::scale(&phase.probe_us, typical),
            "us",
        ),
        Metric::new(
            "throughput_ops_s",
            report::block_rate(&phase.samples),
            "ops/s",
        ),
        Metric::new("latency_p90_us", quantile(&latencies, 0.90), "us"),
        Metric::new("latency_p99_us", p99, "us"),
        Metric::new("cpu_us_per_op", cpu_s * 1e6 / attempted as f64, "us"),
        Metric::new("failed_share", failed as f64 / attempted as f64, "fraction"),
        Metric::new(
            "deadline_met_share",
            share(phase.deadline_met, phase.deadline_asked),
            "fraction",
        ),
        Metric::new(
            "rho_width_mean",
            if phase.widths == 0 {
                0.0
            } else {
                phase.width_sum / phase.widths as f64
            },
            "rho",
        ),
        Metric::new("lru_hit_rate", stats.hit_rate(), "fraction"),
        Metric::new("snapshot_update_p50_us", median(&phase.update_us), "us"),
    ];
    if !open_lat.is_empty() {
        extra.extend([
            Metric::new("open_loop_p50_us", median(&open_lat), "us"),
            Metric::new("open_loop_p99_us", quantile(&open_lat, 0.99), "us"),
            Metric::new("generator_lag_p50_us", median(&lag_us), "us"),
            Metric::new("generator_lag_p99_us", quantile(&lag_us, 0.99), "us"),
        ]);
    }
    report::print_metrics(&metrics, &extra);
    println!(
        "# samples: {} latencies; p99 is the median of {blocks} block p99s ({} samples, {} beyond \
         p99 each); {} open-loop latencies; {} probe times; {} attempted, {} failed ({:?}); \
         setups {:?} s",
        latencies.len(),
        report::P99_BLOCK.min(latencies.len()),
        report::P99_BLOCK.min(latencies.len()) / 100,
        open_lat.len(),
        phase.probe_us.len(),
        attempted,
        failed,
        phase.fails,
        setups
    );
    if latencies.len() < report::P99_BLOCK {
        println!("# warning: fewer than 10 samples beyond p99; latency_p99_us is unsupported");
    }
    Outcome {
        attempted,
        failed,
        first_failure: phase.fails.first.clone(),
        metrics,
    }
}

fn traced_run(args: &Args) -> Outcome {
    let seeds = inputs::tenant_seeds(args.kind, args.seed);
    let (inputs, untraced, _) = set_up(args.kind, &seeds, false);
    stamp(args, &inputs);
    let refs = inputs::references(&inputs);
    let share = args.seconds * 0.4;

    // Untraced phase: the same load loop as `--trace 0`, shorter.
    let mut cursor = Cursor::default();
    let u = drive_phase(&untraced, &inputs, &refs, &mut cursor, share);
    let u_stats = untraced.service.stats().aggregate();
    untraced.service.shutdown();

    // Traced phase: every request sampled into a ring that keeps them all.
    let traced = drive::start_tier(&inputs, true);
    let mut cursor = Cursor::default();
    let t = drive_phase(&traced, &inputs, &refs, &mut cursor, share);
    let t_stats = traced.service.stats().aggregate();
    let traces = traced.service.recent_traces();
    traced.service.shutdown();

    let rep = replay::replay(&inputs, Duration::from_secs_f64(args.seconds * 0.2));

    let layers = report::LayerReport::new(&inputs, &u, &t, &u_stats, &traces, &rep);
    let attempted = u.attempted + t.attempted;
    let mut fails = u.fails;
    fails.merge(t.fails);
    drive::check_routing(inputs.kind, &u_stats, &mut fails);
    drive::check_routing(inputs.kind, &t_stats, &mut fails);
    layers.print_table(inputs.kind);
    let failed = fails.total();
    Outcome {
        attempted: attempted.max(1),
        failed,
        first_failure: fails.first,
        metrics: layers.metrics(),
    }
}

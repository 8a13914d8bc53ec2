//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <estimate_inproc|serve_zipf> --seed <n> \
//!     --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Generates the workload's inputs from the seed, sets the system up
//! (`setup_repeats` times, half of them after the measured phase), measures
//! for `--seconds`, checks the outputs, prints every metric by name with its
//! unit, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate traced run reporting the
//! per-layer metrics, the span self-time table, and its own untraced
//! end-to-end numbers for comparison. `--tiny` shrinks every size for the
//! smoke test. Load parameters live in `workloads.json`.

mod checks;
mod config;
mod layers;
mod stats;
mod system;
mod trace;
mod workloads;

use checks::Checks;
use config::{Config, WorkloadCfg};
use stats::{mean, percentile};
use std::process::ExitCode;
use std::time::Duration;
use system::{drop_system, q_error_mean, Front, Inputs, System, UpdateRecord};
use trace::Tracer;
use workloads::{Driver, Gen, Inproc, Phase, Socket};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, false, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value()? == "1",
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(0.1),
        trace,
        tiny,
    })
}

/// Named metrics in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// Runs the workload's measured phase for `secs` seconds of request time,
/// with its update cycles, and the checks on what it served.
#[allow(clippy::too_many_arguments)]
fn main_phase(
    sys: &mut System,
    inp: &Inputs,
    cfg: &Config,
    w: &WorkloadCfg,
    secs: f64,
    width: Duration,
    cursor: &mut usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
    gen: &mut Gen,
) -> Phase {
    let mut driver: Box<dyn Driver> = match sys.front {
        Front::Direct => Box::new(Inproc),
        Front::Net(_) => Box::new(Socket::connect(
            sys,
            inp,
            cfg.serve.inflight,
            cfg.serve.warmup_s,
            gen,
        )),
    };
    gen.at_least(1, 0);
    let s = &w.sizes;
    let p = workloads::run_phase(
        sys,
        inp,
        driver.as_mut(),
        secs,
        width,
        s.update_cycles,
        s.insert,
        cursor,
        tracer,
        checks,
    );
    println!("{}", p.summary.describe(&w.name));
    p
}

/// Mean wall time of the phase's update cycles.
fn update_s(p: &Phase) -> f64 {
    mean(&p.updates.iter().map(|u| u.total_s).collect::<Vec<_>>())
}

fn host_line(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backend = cardest_core::KernelBackend::default_backend().label();
    format!(
        "# host cpu=\"{cpu}\" nproc={nproc} kernel_backend={backend} rev={} seed={seed}",
        revision()
    )
}

/// A hash of the program's sources (`crates/**`) and the benchmark's own
/// (`perfbench/src/**`, `perfbench/workloads.json`), committed or not, so
/// runs of different code never share an identifier.
fn revision() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("perfbench/workloads.json")];
    let mut dirs = vec![root.join("crates"), root.join("perfbench/src")];
    while let Some(d) = dirs.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in name.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = Config::load();
    if args.tiny {
        cfg.make_tiny();
    }
    let Some(w) = cfg.workload(&args.workload).cloned() else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!("{}", host_line(args.seed));
    println!(
        "# workload {} seconds={} trace={} window_ms={} setup_repeats={} {:?}",
        w.name,
        args.seconds,
        u8::from(args.trace),
        cfg.window_ms,
        cfg.setup_repeats,
        w
    );

    let width = Duration::from_millis(cfg.window_ms);
    let inp = Inputs::generate(&cfg, &w, args.seed);
    // Half the set-ups run before the measured phase and half after it, so
    // their median samples the host at both ends of the run.
    let repeats = if args.trace {
        1
    } else {
        cfg.setup_repeats.max(1)
    };
    let mut setups = System::setup_times(&cfg, &inp, w.socket, repeats.div_ceil(2) - 1);
    let (mut sys, t) = System::setup(&cfg, &inp, w.socket);
    setups.push(t);
    let q_err = q_error_mean(&sys.live().estimator, &inp.test);

    let mut checks = Checks::new();
    let mut gen = Gen::default();
    let mut cursor = 0usize;
    let mut metrics = Metrics::default();
    let (attempted, failed);
    if !args.trace {
        let m = main_phase(
            &mut sys,
            &inp,
            &cfg,
            &w,
            args.seconds,
            width,
            &mut cursor,
            &mut Tracer::new(false),
            &mut checks,
            &mut gen,
        );
        let rss_mb = system::peak_rss_mb();
        drop_system(sys);
        setups.extend(System::setup_times(&cfg, &inp, w.socket, repeats / 2));
        println!("# set-up times {setups:?} s");
        metrics.put("setup_s", stats::median(&setups), "s");
        metrics.put("latency_p50_us", m.summary.p50_us, "us");
        metrics.put("throughput_qps", m.summary.qps(w.throughput_q), "1/s");
        metrics.put("update_s", update_s(&m), "s");
        metrics.put("q_error_mean", q_err, "ratio");
        metrics.put("rss_mb", rss_mb, "MiB");
        println!(
            "# {} update cycles ({} retrained)",
            m.updates.len(),
            m.updates.iter().filter(|u| u.retrained).count()
        );
        attempted = m.attempted;
        failed = m.failed;
    } else {
        let half = args.seconds / 2.0;
        let off = main_phase(
            &mut sys,
            &inp,
            &cfg,
            &w,
            half,
            width,
            &mut cursor,
            &mut Tracer::new(false),
            &mut checks,
            &mut gen,
        );
        println!(
            "# untraced end-to-end ({half} s): setup_s {t} s (1 set-up), latency_p50_us {} us, \
             latency_p99_us {} us, throughput_qps {} 1/s, update_s {} s, q_error_mean {q_err} ratio",
            off.summary.p50_us,
            off.summary.p99_us,
            off.summary.qps(w.throughput_q),
            update_s(&off)
        );
        let mut tracer = Tracer::new(true);
        let stats_before = w.socket.then(|| sys.service().stats());
        let on = main_phase(
            &mut sys,
            &inp,
            &cfg,
            &w,
            half,
            width,
            &mut cursor,
            &mut tracer,
            &mut checks,
            &mut gen,
        );
        tracer.print_self_times();
        let main_ratios = stats_before
            .map(|before| layers::ServeRatios::between(&before, &sys.service().stats()));
        let est = sys.live();
        let est = &est.estimator;
        let terms = layers::EstimatorTerms::measure(est, &inp);
        let (wire_enc, wire_dec) = layers::wire_ns(&inp);
        let probe = layers::serve_probe(&sys, &inp, &cfg.serve, half.min(2.0), width, &mut gen);
        let all_updates: Vec<&UpdateRecord> = off.updates.iter().chain(&on.updates).collect();
        let traced = &on.updates;
        let fits: Vec<f64> = all_updates
            .iter()
            .filter_map(|u| u.fit_incremental_s)
            .collect();
        let relabels: Vec<f64> = traced.iter().filter_map(|u| u.relabel_s).collect();

        metrics.put("fx.extract_us", terms.fx_us, "us");
        metrics.put(
            "nn.matmul_gflops.rows1",
            layers::matmul_gflops(est, 1),
            "GFLOP/s",
        );
        metrics.put(
            "nn.matmul_gflops.rows64",
            layers::matmul_gflops(est, 64),
            "GFLOP/s",
        );
        metrics.put("core.model.encode_us.b1", terms.encode_us, "us");
        metrics.put("core.model.decode_us", terms.decode_us, "us");
        metrics.put("core.estimator.estimate_us.b1", terms.estimate_b1_us, "us");
        metrics.put(
            "core.estimator.estimate_us.b8",
            layers::estimate_us(est, &inp, 8),
            "us",
        );
        metrics.put(
            "core.estimator.estimate_us.b64",
            layers::estimate_us(est, &inp, 64),
            "us",
        );
        metrics.put(
            "core.estimator.unexplained_frac",
            terms.unexplained_frac(),
            "ratio",
        );
        metrics.put("data.relabel_s", mean(&relabels), "s");
        metrics.put(
            "core.incremental.on_update_s",
            mean(
                &all_updates
                    .iter()
                    .map(|u| u.on_update_s)
                    .collect::<Vec<_>>(),
            ),
            "s",
        );
        metrics.put(
            "core.train.fit_incremental_s",
            if fits.is_empty() { 0.0 } else { mean(&fits) },
            "s",
        );
        metrics.put("core.incremental.retrains", fits.len() as f64, "count");
        metrics.put(
            "core.incremental.updates",
            all_updates.len() as f64,
            "count",
        );
        metrics.put("core.train.fit_s", sys.fit_s, "s");
        metrics.put(
            "serve.registry.publish_ms",
            1e3 * mean(&all_updates.iter().map(|u| u.publish_s).collect::<Vec<_>>()),
            "ms",
        );
        // The workload's own traced phase when it runs a service; the serve
        // probe's socket open loop otherwise.
        let ratios = main_ratios.as_ref().unwrap_or(&probe.ratios);
        metrics.put("serve.service.rtt_us.p50", probe.rtt_p50_us, "us");
        metrics.put(
            "serve.service.batch_rows_mean",
            ratios.batch_rows_mean,
            "rows",
        );
        metrics.put(
            "serve.service.coalesced_ratio",
            ratios.coalesced_ratio,
            "ratio",
        );
        metrics.put("serve.cache.hit_ratio", ratios.hit_ratio, "ratio");
        metrics.put(
            "serve.cache.post_swap_hit_ratio",
            probe.post_swap_hit_ratio,
            "ratio",
        );
        metrics.put(
            "serve.cache.lookup_ns",
            layers::cache_lookup_ns(est, &inp, cfg.serve.cache_capacity),
            "ns",
        );
        metrics.put("serve.wire.encode_ns", wire_enc, "ns");
        metrics.put("serve.wire.decode_ns", wire_dec, "ns");
        metrics.put("e2e.latency_p99_us", off.summary.p99_us, "us");
        metrics.put(
            "serve.net.open_loop_p50_us",
            probe.socket.summary.p50_us,
            "us",
        );
        metrics.put(
            "serve.net.open_loop_p99_us",
            probe.socket.summary.p99_us,
            "us",
        );
        metrics.put(
            "serve.net.ingress_us",
            probe.socket.summary.p50_us - probe.inproc.summary.p50_us,
            "us",
        );
        metrics.put("gen.late_p99_us", probe.late_p99_us, "us");
        attempted = off.attempted + on.attempted + probe.attempted;
        failed = off.failed + on.failed + probe.failed;
        metrics.put(
            "gen.fail_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        metrics.put(
            "trace.overhead_ratio",
            on.summary.p50_us / off.summary.p50_us,
            "ratio",
        );
        println!(
            "# serve probe at {} req/s: socket p50 {} us p99 {} us, in-process p50 {} us p99 {} us, \
             {} + {} requests",
            cfg.serve.offered_qps,
            probe.socket.summary.p50_us,
            probe.socket.summary.p99_us,
            probe.inproc.summary.p50_us,
            probe.inproc.summary.p99_us,
            probe.socket.attempted,
            probe.inproc.attempted
        );
        let mut late = probe.socket.late_ns.clone();
        late.sort_unstable();
        println!(
            "# generator lateness p50 {} us over {} sends",
            percentile(&late, 0.5) as f64 / 1e3,
            late.len()
        );
        drop_system(sys);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# gen threads={} connections={} nproc={nproc}",
        gen.threads, gen.connections
    );
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    checks.check(
        "metrics_finite",
        finite,
        "every metric is a finite number".into(),
    );
    let moves: std::collections::HashMap<&str, &str> = cfg
        .layers
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    for (name, value, unit) in &metrics.0 {
        match moves.get(name) {
            Some(m) => println!("metric {name} {value} {unit}  -> {m}"),
            None => println!("metric {name} {value} {unit}"),
        }
    }
    checks.print();
    let correct = checks.all_passed();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `cardest` command line: generate datasets, train estimators, estimate
//! cardinalities, and serve estimates from the shell — the downstream-user
//! workflow.
//!
//! ```text
//! cardest_cli gen      --kind hm --n 2000 --seed 7 --out data.jsonl
//! cardest_cli train    --data data.jsonl --model model.json [--accelerated]
//! cardest_cli estimate --data data.jsonl --model model.json --query 42 --theta 8
//! cardest_cli estimate --data data.jsonl --model model.json --queries batch.txt
//! cardest_cli serve    --data data.jsonl --model model.json [--workers 4]
//! cardest_cli stats    --data data.jsonl
//! ```
//!
//! `serve` answers `<record-index> <theta>` request lines from stdin with one
//! estimate line each on stdout (a summary of the service counters goes to
//! stderr at EOF); `estimate --queries` runs the same request format from a
//! file through the serving layer's micro-batching path. With `--listen
//! [ADDR]`, `serve` instead opens the framed TCP ingress (`cardest-serve`'s
//! wire protocol, see the README's Serving section) with admission control
//! and load shedding; it prints the bound address, runs until stdin closes,
//! then drains gracefully.
//!
//! (Argument parsing is hand-rolled: the workspace's dependency policy has no
//! CLI-parser crate, and a handful of subcommands does not justify one.)

#![forbid(unsafe_code)]

use cardest_core::estimator::CardinalityEstimator;
use cardest_core::model::CardNetConfig;
use cardest_core::snapshot::Snapshot;
use cardest_core::train::{train_cardnet, TrainerOptions};
use cardest_core::CardNetEstimator;
use cardest_core::{KernelBackend, Parallelism};
use cardest_data::synth::{self, SynthConfig};
use cardest_data::Record;
use cardest_data::{io as dio, Dataset, Workload};
use cardest_fx::build_extractor;
use cardest_serve::{
    Frame, MetricsServer, ModelRegistry, NetClient, NetConfig, NetServer, Request, RequestFrame,
    ServeConfig, Service, WireQuery,
};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, flags) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cardest_cli gen      --kind <hm|ed|jc|eu> --n <records> [--seed <u64>] --out <file>
  cardest_cli train    --data <file> --model <file> [--accelerated] [--epochs <n>] [--tau-max <n>]
                       [--kernel-backend <blocked|simd|auto>]
  cardest_cli estimate --data <file> --model <file> --query <record-index> --theta <f64> [--curve]
                       [--kernel-backend <blocked|simd|auto>]
  cardest_cli estimate --data <file> --model <file> --queries <file with `<index> <theta>` lines>
                       [--kernel-backend <blocked|simd|auto>]
  cardest_cli serve    --data <file> --model <file> [--workers <n>] [--batch-max <n>]
                       [--batch-window-us <n>] [--cache <entries>] [--bound-tolerance <f64>]
                       [--cache-curve-points <n>] [--pipeline <n outstanding>]
                       [--kernel-backend <blocked|simd|auto>]
                       [--listen [ADDR]] [--max-conns <n; 0 = unlimited>]
                       [--queue-limit <in-flight requests; 0 = unbounded>]
                       [--deadline-ms <per-request default; 0 = none>]
                       [--client-quota <outstanding per client id; 0 = unlimited>]
                       [--frame-timeout-ms <slow-loris cutoff>]
                       [--idle-timeout-ms <idle-connection cutoff; 0 = none>]
                       [--metrics-addr <ADDR for HTTP /metrics + /stats.json + /traces.json>]
                       [--no-tracing] [--trace-sample <capture every nth trace>]
                       [--slow-threshold-ms <slow-query log cutoff>]
  cardest_cli stats    --data <file>
  cardest_cli stats    --connect <ADDR> [--loadgen <n requests first>]
                       [--index-range <loadgen query indices, default 1>]
                       [--theta <loadgen threshold, default 4>]

Kernel backends only change wall clock: both kernel tiers (blocked,
explicit SIMD) are bit-identical, so estimates and trained weights never
depend on them. Without --kernel-backend the process default
applies: the CARDEST_KERNEL_BACKEND env var if set, else the best the CPU
supports (AVX-512 → AVX2 → blocked).";

type Flags = HashMap<String, String>;
type Command = fn(&Flags) -> Result<(), String>;

/// Every subcommand, its handler, and the flags its USAGE lines list.
const COMMANDS: [(&str, Command, &str); 5] = [
    ("gen", cmd_gen, "kind n seed out"),
    (
        "train",
        cmd_train,
        "data model accelerated epochs tau-max kernel-backend",
    ),
    (
        "estimate",
        cmd_estimate,
        "data model query theta curve queries kernel-backend",
    ),
    (
        "serve",
        cmd_serve,
        "data model workers batch-max batch-window-us cache bound-tolerance \
         cache-curve-points pipeline kernel-backend listen max-conns queue-limit \
         deadline-ms client-quota frame-timeout-ms idle-timeout-ms metrics-addr \
         no-tracing trace-sample slow-threshold-ms",
    ),
    ("stats", cmd_stats, "data connect loadgen index-range theta"),
];

/// Splits `<command> --flag [value] ...` into the command's handler and its
/// flags. A flag the command does not list is an error, so a typo or a
/// retired flag never runs with its value silently ignored.
fn parse(args: &[String]) -> Result<(Command, Flags), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing command")?;
    let &(_, run, accepted) = COMMANDS
        .iter()
        .find(|(name, ..)| name == cmd)
        .ok_or_else(|| format!("unknown command `{cmd}`"))?;
    let mut flags = HashMap::new();
    let mut key: Option<String> = None;
    for a in it {
        if let Some(stripped) = a.strip_prefix("--") {
            if !accepted.split(' ').any(|f| f == stripped) {
                return Err(format!("unknown flag --{stripped}"));
            }
            // Bare flags (e.g. --accelerated) read as "true".
            if let Some(k) = key.take() {
                flags.insert(k, "true".to_string());
            }
            key = Some(stripped.to_string());
        } else if let Some(k) = key.take() {
            flags.insert(k, a.clone());
        } else {
            // Positional arguments are not part of the grammar.
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    if let Some(k) = key.take() {
        flags.insert(k, "true".to_string());
    }
    Ok((run, flags))
}

fn required<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
}

fn parsed<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let kind = required(flags, "kind")?;
    let n: usize = parsed(flags, "n", 2000)?;
    let seed: u64 = parsed(flags, "seed", 42)?;
    let out = PathBuf::from(required(flags, "out")?);
    let cfg = SynthConfig::new(n, seed);
    let ds = match kind {
        "hm" => synth::hm_imagenet(cfg),
        "ed" => synth::ed_aminer(cfg),
        "jc" => synth::jc_bms(cfg),
        "eu" => synth::eu_glove(cfg, 48),
        other => return Err(format!("unknown --kind `{other}` (hm|ed|jc|eu)")),
    };
    dio::save_jsonl(&ds, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} records, {}) to {}",
        ds.name,
        ds.len(),
        ds.kind.name(),
        out.display()
    );
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let ds = dio::load_jsonl(Path::new(required(flags, "data")?)).map_err(|e| e.to_string())?;
    let model_path = PathBuf::from(required(flags, "model")?);
    let accelerated = flags.contains_key("accelerated");
    let epochs: usize = parsed(flags, "epochs", 56)?;
    let tau_max: usize = parsed(flags, "tau-max", 16)?;

    let wl = Workload::sample_from(&ds, 0.10, 12, 7);
    let split = wl.split(13);
    let fx = build_extractor(&ds, tau_max, 1);
    let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
    if accelerated {
        cfg = cfg.accelerated();
    }
    let opts = TrainerOptions {
        epochs,
        kernel_backend: kernel_backend_flag(flags)?,
        ..TrainerOptions::default()
    };
    let (trainer, report) = train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);
    println!(
        "trained {} in {:.1}s ({} epochs, val MSLE {:.3})",
        if accelerated { "CardNet-A" } else { "CardNet" },
        report.train_seconds,
        report.epochs_run,
        report.best_val_msle
    );
    Snapshot::from_trainer(&trainer, fx.name(), fx.tau_max())
        .save(&model_path)
        .map_err(|e| e.to_string())?;
    println!("snapshot saved to {}", model_path.display());
    Ok(())
}

/// Loads the dataset and snapshot named by `--data`/`--model` and restores a
/// *validated* estimator (decoder count, extractor name, and dimensionality
/// are all checked before a single estimate is produced).
fn load_estimator(flags: &Flags) -> Result<(Dataset, CardNetEstimator), String> {
    let ds = dio::load_jsonl(Path::new(required(flags, "data")?)).map_err(|e| e.to_string())?;
    let snap = Snapshot::load(Path::new(required(flags, "model")?)).map_err(|e| e.to_string())?;
    // Rebuild the extractor the snapshot was trained behind; seeds are
    // deterministic, and `into_estimator` rejects any mismatch.
    let fx = build_extractor(&ds, snap.tau_max, 1);
    let mut est = snap.into_estimator(fx).map_err(|e| e.to_string())?;
    est.set_parallelism(Parallelism::serial().with_backend_opt(kernel_backend_flag(flags)?));
    Ok((ds, est))
}

/// Reads `--kernel-backend`; absent means "process default" (the
/// `CARDEST_KERNEL_BACKEND` env var, else CPU auto-detection), `auto` pins
/// the detected best tier explicitly.
fn kernel_backend_flag(flags: &Flags) -> Result<Option<KernelBackend>, String> {
    match flags.get("kernel-backend") {
        None => Ok(None),
        Some(v) => KernelBackend::parse(v).map(Some).ok_or_else(|| {
            format!("--kernel-backend: `{v}` not recognized (want blocked|simd|auto)")
        }),
    }
}

/// Parses one `<record-index> <theta>` request line.
fn parse_request_line(line: &str, n_records: usize) -> Result<(usize, f64), String> {
    let mut parts = line.split_whitespace();
    let idx: usize = parts
        .next()
        .ok_or("empty request line")?
        .parse()
        .map_err(|_| format!("bad record index in `{line}`"))?;
    let theta: f64 = parts
        .next()
        .ok_or_else(|| format!("missing theta in `{line}`"))?
        .parse()
        .map_err(|_| format!("bad theta in `{line}`"))?;
    if parts.next().is_some() {
        return Err(format!("trailing tokens in `{line}`"));
    }
    if idx >= n_records {
        return Err(format!(
            "record index {idx} out of range (dataset has {n_records})"
        ));
    }
    Ok((idx, theta))
}

fn serve_config_from_flags(flags: &Flags) -> Result<ServeConfig, String> {
    let defaults = ServeConfig::default();
    Ok(ServeConfig {
        workers: parsed(flags, "workers", defaults.workers)?,
        batch_max: parsed(flags, "batch-max", defaults.batch_max)?,
        batch_window: Duration::from_micros(parsed(flags, "batch-window-us", 200u64)?),
        cache_capacity: parsed(flags, "cache", defaults.cache_capacity)?,
        bound_tolerance: parsed(flags, "bound-tolerance", 0.0)?,
        cache_curve_points: parsed(flags, "cache-curve-points", 0usize)?,
        kernel_threads: defaults.kernel_threads,
        kernel_backend: kernel_backend_flag(flags)?,
        tracing: !flags.contains_key("no-tracing"),
        trace_sample: parsed(flags, "trace-sample", defaults.trace_sample)?,
        slow_threshold: Duration::from_millis(parsed(
            flags,
            "slow-threshold-ms",
            defaults.slow_threshold.as_millis() as u64,
        )?),
    })
}

fn cmd_estimate(flags: &Flags) -> Result<(), String> {
    if let Some(queries_path) = flags.get("queries") {
        return cmd_estimate_batch(flags, Path::new(queries_path));
    }
    let (ds, est) = load_estimator(flags)?;
    let query_idx: usize = parsed(flags, "query", 0)?;
    let theta: f64 = required(flags, "theta")?
        .parse()
        .map_err(|_| "--theta: not a number")?;
    if query_idx >= ds.len() {
        return Err(format!(
            "--query {query_idx} out of range (dataset has {})",
            ds.len()
        ));
    }
    let query = &ds.records[query_idx];
    let estimate = if flags.contains_key("curve") {
        // The whole threshold curve from one prepare + one curve call; its
        // final point *is* the scalar estimate (bit-identical), so no second
        // model run is needed.
        let prepared = est.prepare(query);
        let curve = est.curve(&prepared, theta);
        for (step, value) in curve.values().iter().enumerate() {
            println!("τ={step}: {value:.1}");
        }
        curve.last()
    } else {
        est.estimate(query, theta)
    };
    let actual = ds.cardinality_scan(query, theta);
    println!("query #{query_idx}, θ = {theta}: estimated {estimate:.1}, actual {actual}");
    Ok(())
}

/// Batch mode: every `<index> <theta>` line of the file goes through the
/// serving layer (micro-batched, cached), one estimate printed per line in
/// input order. The service runs the default [`ServeConfig`];
/// `--kernel-backend` is its only knob.
fn cmd_estimate_batch(flags: &Flags, queries_path: &Path) -> Result<(), String> {
    let (ds, est) = load_estimator(flags)?;
    let text = std::fs::read_to_string(queries_path).map_err(|e| e.to_string())?;
    let requests: Vec<(usize, f64)> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_request_line(l, ds.len()))
        .collect::<Result<_, _>>()?;

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", est);
    let config = ServeConfig {
        kernel_backend: kernel_backend_flag(flags)?,
        ..ServeConfig::default()
    };
    let service = Service::start(registry, config);
    // Fully pipelined: submit everything, then drain in input order — this
    // is what lets the workers form real micro-batches.
    let receivers: Vec<_> = requests
        .iter()
        .map(|&(idx, theta)| {
            service.submit(Request {
                model: "default".into(),
                query: Arc::new(ds.records[idx].clone()),
                theta,
            })
        })
        .collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for rx in receivers {
        let resp = rx
            .recv()
            .map_err(|_| "service stopped".to_string())?
            .map_err(|e| e.to_string())?;
        writeln!(out, "{}", resp.estimate).map_err(|e| e.to_string())?;
    }
    drop(out);
    let snap = service.stats();
    eprintln!(
        "{} requests, {} model batches (mean size {:.1}), cache hits {:.1}% (bound hits {:.1}%)",
        snap.requests,
        snap.batches,
        snap.mean_batch_size(),
        snap.hit_rate() * 100.0,
        snap.bound_hit_rate() * 100.0
    );
    service.shutdown();
    Ok(())
}

fn net_config_from_flags(flags: &Flags) -> Result<NetConfig, String> {
    let defaults = NetConfig::default();
    let deadline_ms: u64 = parsed(flags, "deadline-ms", 0u64)?;
    Ok(NetConfig {
        max_connections: parsed(flags, "max-conns", defaults.max_connections)?,
        queue_limit: parsed(flags, "queue-limit", defaults.queue_limit)?,
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        client_quota: parsed(flags, "client-quota", defaults.client_quota)?,
        frame_timeout: Duration::from_millis(parsed(
            flags,
            "frame-timeout-ms",
            defaults.frame_timeout.as_millis() as u64,
        )?),
        idle_timeout: {
            // 0 disables the idle guard.
            let default_ms = defaults.idle_timeout.map_or(0, |d| d.as_millis() as u64);
            let ms: u64 = parsed(flags, "idle-timeout-ms", default_ms)?;
            (ms > 0).then(|| Duration::from_millis(ms))
        },
        default_model: defaults.default_model,
    })
}

/// Socket serve mode (`--listen`): the framed TCP ingress with admission
/// control. Prints the bound address on stdout (so scripts can scrape an
/// ephemeral `:0` port), runs until stdin reaches EOF, then drains in-flight
/// work and exits.
fn cmd_serve_socket(flags: &Flags, ds: Dataset, est: CardNetEstimator) -> Result<(), String> {
    let addr_flag = required(flags, "listen")?;
    // A bare `--listen` parses as "true": serve on an ephemeral local port.
    let addr = if addr_flag == "true" {
        "127.0.0.1:0"
    } else {
        addr_flag
    };
    let monotone = est.is_monotonic();
    let registry = Arc::new(ModelRegistry::new());
    let epoch = registry.publish("default", est);
    let config = serve_config_from_flags(flags)?;
    let net = net_config_from_flags(flags)?;
    let service = Service::start(registry, config);
    let records: Vec<Arc<Record>> = ds.records.iter().cloned().map(Arc::new).collect();
    let server = NetServer::bind(addr, service, records, net)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("listening on {}", server.addr());
    // Optional HTTP observability endpoint: Prometheus text on /metrics,
    // JSON on /stats.json and /traces.json — same unified registry the wire
    // Stats frame reads.
    let metrics = match flags.get("metrics-addr") {
        Some(maddr) => {
            let m = MetricsServer::bind(
                maddr,
                Arc::clone(server.service().stats_handle()),
                Arc::clone(server.service().observer()),
            )
            .map_err(|e| format!("cannot bind metrics endpoint {maddr}: {e}"))?;
            println!("metrics on {}", m.local_addr());
            Some(m)
        }
        None => None,
    };
    std::io::stdout().flush().ok();
    eprintln!(
        "serving `{}` ({} records) over TCP (model epoch {epoch}, monotone: {monotone}); \
         close stdin to drain and exit",
        ds.name,
        ds.len(),
    );
    // Park until the controlling stdin closes; the accept loop and the
    // per-connection threads do all the work.
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
    }
    let snap = server.service().stats();
    if let Some(m) = metrics {
        m.shutdown();
    }
    server.shutdown();
    eprintln!(
        "served {} requests ({} errors): cache hits {:.1}%, degraded sheds {}, \
         rejects {} overload + {} quota, p50 {:?}, p99 {:?}",
        snap.requests,
        snap.errors,
        snap.hit_rate() * 100.0,
        snap.shed_bracket,
        snap.shed_rejected,
        snap.quota_rejected,
        snap.latency_quantile(0.50),
        snap.latency_quantile(0.99),
    );
    Ok(())
}

/// Long-running serve mode: request lines on stdin, estimates on stdout.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let (ds, est) = load_estimator(flags)?;
    if flags.contains_key("listen") {
        return cmd_serve_socket(flags, ds, est);
    }
    let monotone = est.is_monotonic();
    let registry = Arc::new(ModelRegistry::new());
    let epoch = registry.publish("default", est);
    let config = serve_config_from_flags(flags)?;
    // How many requests may be in flight before we block on the oldest
    // response. 1 = strictly interactive; larger values let piped input form
    // micro-batches at the cost of response lag behind input.
    let pipeline: usize = parsed(flags, "pipeline", 1usize)?;
    eprintln!(
        "serving `{}` ({} records) with {} workers, batch window {:?}, cache {} entries \
         (model epoch {epoch}, monotone: {monotone}); send `<record-index> <theta>` lines",
        ds.name,
        ds.len(),
        config.workers,
        config.batch_window,
        config.cache_capacity,
    );
    let service = Service::start(registry, config);

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    type PendingResponse =
        std::sync::mpsc::Receiver<Result<cardest_serve::Response, cardest_serve::ServeError>>;
    let mut in_flight: std::collections::VecDeque<PendingResponse> =
        std::collections::VecDeque::new();
    fn drain(
        in_flight: &mut std::collections::VecDeque<PendingResponse>,
        out: &mut dyn Write,
        until: usize,
    ) {
        while in_flight.len() > until {
            let rx = in_flight.pop_front().expect("non-empty queue");
            match rx.recv() {
                Ok(Ok(resp)) => {
                    let _ = writeln!(out, "{}", resp.estimate);
                }
                Ok(Err(e)) => {
                    let _ = writeln!(out, "ERR {e}");
                }
                Err(_) => {
                    let _ = writeln!(out, "ERR service stopped");
                }
            }
        }
        let _ = out.flush();
    }
    let mut parse_errors = 0usize;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_request_line(&line, ds.len()) {
            Ok((idx, theta)) => {
                in_flight.push_back(service.submit(Request {
                    model: "default".into(),
                    query: Arc::new(ds.records[idx].clone()),
                    theta,
                }));
                drain(&mut in_flight, &mut out, pipeline.max(1) - 1);
            }
            Err(e) => {
                // Flush everything in flight first so response line i keeps
                // pairing with request line i even when pipelining.
                drain(&mut in_flight, &mut out, 0);
                parse_errors += 1;
                eprintln!("bad request: {e}");
                let _ = writeln!(out, "ERR {e}");
                let _ = out.flush();
            }
        }
    }
    drain(&mut in_flight, &mut out, 0);
    drop(out);
    let snap = service.stats();
    eprintln!(
        "served {} requests ({} errors, {parse_errors} malformed lines): \
         {} model batches (mean size {:.1}), \
         cache hits {:.1}% (bound {:.1}%), p50 {:?}, p99 {:?}",
        snap.requests,
        snap.errors,
        snap.batches,
        snap.mean_batch_size(),
        snap.hit_rate() * 100.0,
        snap.bound_hit_rate() * 100.0,
        snap.latency_quantile(0.50),
        snap.latency_quantile(0.99),
    );
    service.shutdown();
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    if flags.contains_key("connect") {
        return cmd_stats_remote(flags);
    }
    let ds = dio::load_jsonl(Path::new(required(flags, "data")?)).map_err(|e| e.to_string())?;
    println!("name:      {}", ds.name);
    println!("distance:  {}", ds.kind.name());
    println!("records:   {}", ds.len());
    println!("l_max:     {}", ds.max_width());
    println!("l_avg:     {:.2}", ds.avg_width());
    println!("theta_max: {}", ds.theta_max);
    Ok(())
}

/// `stats --connect`: pulls the unified counter snapshot from a running
/// socket server over the wire protocol's `Stats` frame. With `--loadgen N`
/// it first drives N index requests through the same connection and then
/// **reconciles**: the server-side counter deltas must account for every
/// frame this client sent and received, else the exit code is nonzero.
fn cmd_stats_remote(flags: &Flags) -> Result<(), String> {
    let addr = required(flags, "connect")?;
    let loadgen: u64 = parsed(flags, "loadgen", 0u64)?;
    let theta: f64 = parsed(flags, "theta", 4.0)?;
    let index_range: u64 = parsed::<u64>(flags, "index-range", 1)?.max(1);
    let sock = std::net::ToSocketAddrs::to_socket_addrs(addr)
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to no address"))?;
    let mut client =
        NetClient::connect(sock).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    let before = client.stats(1).map_err(|e| e.to_string())?;
    let mut seen_responses = 0u64;
    let mut seen_errors = 0u64;
    for i in 0..loadgen {
        client
            .send(&Frame::Request(RequestFrame {
                request_id: i,
                client_id: 0xC11,
                theta,
                deadline_us: 0,
                model: String::new(),
                query: WireQuery::Index(i % index_range),
            }))
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..loadgen {
        match client.recv().map_err(|e| e.to_string())? {
            Frame::Response(_) => seen_responses += 1,
            Frame::Error(_) => seen_errors += 1,
            other => return Err(format!("unexpected frame during loadgen: {other:?}")),
        }
    }
    let after = client.stats(2).map_err(|e| e.to_string())?;

    for (name, value) in &after.counters {
        println!("{name} {value}");
    }
    if loadgen == 0 {
        return Ok(());
    }
    eprintln!("loadgen: {loadgen} sent, {seen_responses} answered, {seen_errors} rejected");
    // Deltas, not absolutes: other clients may be hitting the same server,
    // which can only push the deltas *up* — so `>=` is the exact claim a
    // shared connection can make, and any shortfall means a lost count.
    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    let checks: [(&str, u64, u64); 3] = [
        (
            "cardest_requests_total",
            delta("cardest_requests_total"),
            loadgen,
        ),
        (
            "cardest_answered_total",
            delta("cardest_answered_total"),
            seen_responses,
        ),
        (
            "rejects (errors+shed+quota)",
            delta("cardest_errors_total")
                + delta("cardest_shed_rejected_total")
                + delta("cardest_quota_rejected_total"),
            seen_errors,
        ),
    ];
    for (name, got, want) in checks {
        if got < want {
            return Err(format!(
                "counter reconciliation failed: {name} moved by {got}, \
                 but this client observed {want}"
            ));
        }
    }
    eprintln!("counters reconcile with client-side observations");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn rejects(line: &str, flag: &str) {
        match parse(&args(line)) {
            Err(e) => assert_eq!(e, format!("unknown flag --{flag}"), "`{line}`"),
            Ok(_) => panic!("`{line}` parsed"),
        }
    }

    #[test]
    fn removed_thread_flags_are_rejected() {
        rejects("train --data d.jsonl --model m.json --threads 2", "threads");
        rejects("estimate --data d --query 1 --threads 4", "threads");
        rejects("serve --data d --kernel-threads 2", "kernel-threads");
    }

    #[test]
    fn misspelled_flags_are_rejected() {
        rejects("estimate --kernel-backnd simd --data d", "kernel-backnd");
        rejects("serve --worker 2", "worker");
        // A flag of another subcommand is unknown here too.
        rejects("gen --kind hm --listen", "listen");
        assert!(parse(&args("gen --kind hm stray")).is_err());
        assert!(parse(&args("frobnicate --data d")).is_err());
    }

    /// Every `--flag` on a subcommand's USAGE lines parses for that
    /// subcommand, and every flag a subcommand accepts is on its lines.
    #[test]
    fn every_usage_flag_is_accepted() {
        let mut documented: HashMap<&str, Vec<&str>> = HashMap::new();
        let mut cmd = "";
        for line in USAGE.lines() {
            let mut words = line.split_whitespace();
            if words.next() == Some("cardest_cli") {
                cmd = words.next().expect("a subcommand after cardest_cli");
            } else if !line.starts_with(' ') {
                cmd = ""; // the prose after the synopsis
            }
            for word in line.split_whitespace().filter(|_| !cmd.is_empty()) {
                if let Some(flag) = word.trim_start_matches('[').strip_prefix("--") {
                    let flag = flag.trim_end_matches(']');
                    documented.entry(cmd).or_default().push(flag);
                    let parsed = parse(&args(&format!("{cmd} --{flag} x")));
                    assert!(parsed.is_ok(), "{cmd} --{flag}: {:?}", parsed.err());
                }
            }
        }
        for (cmd, _, accepted) in COMMANDS {
            let listed = documented.get(cmd).cloned().unwrap_or_default();
            for flag in accepted.split(' ') {
                assert!(listed.contains(&flag), "{cmd} --{flag} is not in USAGE");
            }
        }
    }
}

//! Inputs, set-up and update cycles shared by the workloads.
//!
//! The benchmark generates every input from seeds; the program only ever
//! receives the generated corpus, queries and requests.

use crate::config::{Config, ServeCfg, WorkloadCfg};
use crate::trace::Tracer;
use cardest_core::estimator::CardinalityEstimator;
use cardest_core::model::CardNetConfig;
use cardest_core::train::{train_cardnet, TrainerOptions};
use cardest_core::{CardNetEstimator, IncrementalLearner, Snapshot};
use cardest_data::synth::{hm_imagenet, SynthConfig};
use cardest_data::zipf::Zipf;
use cardest_data::{Dataset, Record, Workload};
use cardest_fx::build_extractor;
use cardest_serve::{
    Frame, ModelRegistry, NetClient, NetConfig, NetServer, RequestFrame, ServeConfig, ServeModel,
    Service, WireQuery,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MODEL: &str = "default";

/// One request: record index and threshold-grid index.
pub type Key = (u32, u8);

/// Everything a run feeds the program, derived from seeds alone.
pub struct Inputs {
    pub ds: Dataset,
    pub grid: Vec<f64>,
    pub train_q: Vec<Record>,
    pub valid_q: Vec<Record>,
    /// Held-out queries labelled exactly (benchmark-side work, untimed).
    pub test: Workload,
    /// The request stream, cycled when a run outlasts it.
    pub keys: Vec<Key>,
    /// Seed of the open-loop arrival schedules.
    pub arrival_seed: u64,
    /// Seed of the records the update cycles insert.
    insert_seed: u64,
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// The corpus, the training queries and the inserted records come from
    /// the workload's fixed `data_seed`, so every run trains the same model
    /// and prices the same updates; the request stream and the held-out
    /// test queries come from `seed`.
    pub fn generate(cfg: &Config, w: &WorkloadCfg, seed: u64) -> Inputs {
        let s = &w.sizes;
        let ds = hm_imagenet(SynthConfig::new(s.records, w.data_seed));
        let grid = Workload::uniform_grid(ds.theta_max, cfg.model.thresholds);

        let mut rng = StdRng::seed_from_u64(mix(w.data_seed, 1));
        let mut order: Vec<usize> = (0..ds.len()).collect();
        order.shuffle(&mut rng);
        let (train_idx, rest) = order.split_at(s.train_queries);
        let (valid_idx, unseen) = rest.split_at(s.valid_queries);
        let pick =
            |idx: &[usize]| -> Vec<Record> { idx.iter().map(|&i| ds.records[i].clone()).collect() };
        let train_q = pick(train_idx);
        let valid_q = pick(valid_idx);
        let base = mix(seed, w.data_seed);
        let mut rng = StdRng::seed_from_u64(base ^ 1);
        let mut unseen = unseen.to_vec();
        unseen.shuffle(&mut rng);
        let test = Workload::label(&ds, pick(&unseen[..s.test_queries]), grid.clone());

        let mut rng = StdRng::seed_from_u64(base ^ 2);
        let n_thr = grid.len() as u8;
        let keys: Vec<Key> = if w.key_zipf > 0.0 {
            // Zipf over a seeded permutation of the records: the hot keys
            // differ from seed to seed.
            let mut perm: Vec<u32> = (0..ds.len() as u32).collect();
            perm.shuffle(&mut rng);
            let zipf = Zipf::new(ds.len(), w.key_zipf);
            (0..200_000)
                .map(|_| (perm[zipf.sample(&mut rng)], rng.gen_range(0..n_thr)))
                .collect()
        } else {
            // Distinct (record, θ) pairs in uniform random order.
            let mut all: Vec<Key> = (0..ds.len() as u32)
                .flat_map(|r| (0..n_thr).map(move |t| (r, t)))
                .collect();
            all.shuffle(&mut rng);
            all
        };
        Inputs {
            ds,
            grid,
            train_q,
            valid_q,
            test,
            keys,
            arrival_seed: base ^ 3,
            insert_seed: mix(w.data_seed, 3),
        }
    }

    pub fn key(&self, i: usize) -> (usize, f64) {
        let (r, t) = self.keys[i % self.keys.len()];
        (r as usize, self.grid[t as usize])
    }

    /// The records the `cycle`-th update inserts: near-copies (three bit
    /// flips) of uniformly drawn records of the initial corpus, so the
    /// cardinalities of the labelled queries grow.
    pub fn inserts(&self, cycle: usize, n: usize) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(self.insert_seed.wrapping_add(cycle as u64));
        (0..n)
            .map(|_| {
                let mut bits = self.ds.records[rng.gen_range(0..self.ds.len())]
                    .as_bits()
                    .clone();
                for _ in 0..3 {
                    bits.flip(rng.gen_range(0..bits.len()));
                }
                Record::Bits(bits)
            })
            .collect()
    }
}

/// How the workload's requests reach the model.
pub enum Front {
    /// The query optimizer calling the estimator in-process.
    Direct,
    /// A service behind the socket ingress.
    Net(NetServer),
}

/// A set-up, answering system.
pub struct System {
    pub tau_max: usize,
    pub extractor_seed: u64,
    pub learner: IncrementalLearner,
    pub registry: Arc<ModelRegistry>,
    /// The current corpus (grows with every update).
    pub ds: Dataset,
    pub front: Front,
    pub fit_s: f64,
}

pub fn serve_config(s: &ServeCfg) -> ServeConfig {
    ServeConfig {
        workers: s.workers,
        batch_max: s.batch_max,
        batch_window: Duration::from_micros(s.batch_window_us),
        cache_capacity: s.cache_capacity,
        bound_tolerance: 0.0,
        cache_curve_points: 0,
        kernel_threads: 1,
        kernel_backend: None,
        ..ServeConfig::default()
    }
}

pub fn net_config(s: &ServeCfg) -> NetConfig {
    NetConfig {
        queue_limit: s.queue_limit,
        ..NetConfig::default()
    }
}

pub fn request_frame(id: u64, rec: &Record, theta: f64) -> Frame {
    Frame::Request(RequestFrame {
        request_id: id,
        client_id: 1,
        theta,
        deadline_us: 0,
        model: String::new(),
        query: WireQuery::Bits(rec.as_bits().clone()),
    })
}

impl System {
    /// Set-up, timed from handing over the generated inputs until the first
    /// answer: label the training workload, train CardNet, publish it, start
    /// the service and socket when `socket` is set, answer one request.
    pub fn setup(cfg: &Config, inp: &Inputs, socket: bool) -> (System, f64) {
        let t0 = Instant::now();
        let m = &cfg.model;
        let ds = inp.ds.clone();
        let fx = build_extractor(&ds, m.tau_max, m.extractor_seed);
        let train_wl = Workload::label(&ds, inp.train_q.clone(), inp.grid.clone());
        let valid_wl = Workload::label(&ds, inp.valid_q.clone(), inp.grid.clone());
        let net_cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
        let opts = TrainerOptions {
            epochs: m.epochs,
            vae_epochs: m.vae_epochs,
            ..TrainerOptions::quick()
        };
        let (trainer, report) = train_cardnet(fx.as_ref(), &train_wl, &valid_wl, net_cfg, opts);
        let registry = Arc::new(ModelRegistry::new());
        let snap = Snapshot::from_trainer(&trainer, fx.name(), fx.tau_max());
        let epoch = registry
            .publish_snapshot(
                MODEL,
                snap,
                build_extractor(&ds, m.tau_max, m.extractor_seed),
            )
            .expect("fresh snapshot matches its extractor");
        let learner = IncrementalLearner::new(trainer, train_wl, valid_wl, fx.as_ref());
        let front = if socket {
            let svc = Service::start(Arc::clone(&registry), serve_config(&cfg.serve));
            let records = ds.records.iter().cloned().map(Arc::new).collect();
            Front::Net(
                NetServer::bind("127.0.0.1:0", svc, records, net_config(&cfg.serve))
                    .expect("bind a loopback port"),
            )
        } else {
            Front::Direct
        };
        let sys = System {
            tau_max: fx.tau_max(),
            extractor_seed: m.extractor_seed,
            learner,
            registry,
            ds,
            front,
            fit_s: report.train_seconds,
        };
        let (idx, theta) = inp.key(0);
        let answered = sys.read_once(&inp.ds.records[idx], theta);
        assert_eq!(answered, Ok(epoch), "set-up's first answer");
        (sys, t0.elapsed().as_secs_f64())
    }

    /// Sets up `n` systems, stopping each; returns every set-up's time.
    pub fn setup_times(cfg: &Config, inp: &Inputs, socket: bool, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let (sys, t) = System::setup(cfg, inp, socket);
                drop_system(sys);
                t
            })
            .collect()
    }

    /// The model currently published.
    pub fn live(&self) -> Arc<ServeModel> {
        self.registry.get(MODEL).expect("a published model")
    }

    pub fn service(&self) -> &Service {
        match &self.front {
            Front::Net(n) => n.service(),
            Front::Direct => panic!("this workload runs no service"),
        }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        match &self.front {
            Front::Net(n) => n.addr(),
            Front::Direct => panic!("this workload runs no socket"),
        }
    }

    /// One read through the workload's front; returns the answering epoch.
    pub fn read_once(&self, rec: &Record, theta: f64) -> Result<u64, String> {
        match &self.front {
            Front::Direct => {
                let live = self.registry.get(MODEL).ok_or("no model")?;
                let p = live.estimator.prepare(rec);
                let e = live.estimator.estimate_batch(&[&p], &[theta]);
                if e.len() != 1 {
                    return Err(format!("{} answers to one query", e.len()));
                }
                Ok(live.epoch)
            }
            Front::Net(n) => {
                let mut c = NetClient::connect(n.addr()).map_err(|e| e.to_string())?;
                c.send(&request_frame(0, rec, theta))
                    .map_err(|e| e.to_string())?;
                match c.recv() {
                    Ok(Frame::Response(r)) => Ok(r.epoch),
                    Ok(other) => Err(format!("unexpected frame {other:?}")),
                    Err(e) => Err(e.to_string()),
                }
            }
        }
    }

    /// One update cycle: insert records, run the §8 monitor-then-retrain
    /// step, publish the snapshot, and read until an answer comes from the
    /// new epoch. `first_read` issues one read and returns its epoch.
    pub fn update_cycle(
        &mut self,
        inserts: Vec<Record>,
        tracer: &mut Tracer,
        first_read: &mut dyn FnMut(&System) -> Result<u64, String>,
    ) -> UpdateRecord {
        let req = u64::MAX - self.registry.epoch();
        let t0 = Instant::now();
        tracer.enter("update.cycle", req);
        tracer.span("data.insert", req, || self.ds.records.extend(inserts));
        let ds = &self.ds;
        let learner = &mut self.learner;
        let fx = build_extractor(ds, self.tau_max, self.extractor_seed);
        let t = Instant::now();
        let outcome = tracer.span("core.incremental.on_update", req, || {
            learner.on_update(ds, fx.as_ref())
        });
        let on_update_s = t.elapsed().as_secs_f64();
        let snap = tracer.span("core.snapshot.from_trainer", req, || {
            Snapshot::from_trainer(&learner.trainer, fx.name(), self.tau_max)
        });
        let t = Instant::now();
        let epoch = tracer.span("serve.registry.publish_snapshot", req, || {
            self.registry
                .publish_snapshot(MODEL, snap, fx)
                .expect("retrained snapshot matches its extractor")
        });
        let publish_s = t.elapsed().as_secs_f64();
        tracer.enter("update.first_read", req);
        let first = first_read(self);
        tracer.exit();
        tracer.exit();
        let total_s = t0.elapsed().as_secs_f64();
        let relabel_s = tracer.enabled().then(|| {
            // The relabelling on_update did (validation, and training too
            // when it retrained), repeated on copies outside the cycle.
            let mut v = self.learner.valid_wl.clone();
            let mut tr = self.learner.train_wl.clone();
            let t = Instant::now();
            v.relabel(&self.ds);
            tr.relabel(&self.ds);
            t.elapsed().as_secs_f64()
        });
        UpdateRecord {
            total_s,
            on_update_s,
            publish_s,
            relabel_s,
            retrained: outcome.retrained,
            fit_incremental_s: outcome.report.map(|r| r.train_seconds),
            epoch,
            first_read_epoch: first,
        }
    }
}

/// Stops a system's service threads and socket.
pub fn drop_system(sys: System) {
    match sys.front {
        Front::Direct => {}
        Front::Net(n) => n.shutdown(),
    }
}

pub struct UpdateRecord {
    pub total_s: f64,
    pub on_update_s: f64,
    pub publish_s: f64,
    pub relabel_s: Option<f64>,
    pub retrained: bool,
    pub fit_incremental_s: Option<f64>,
    pub epoch: u64,
    pub first_read_epoch: Result<u64, String>,
}

/// Mean q-error `max(ĉ/c, c/ĉ)` (both floored at 1) over every test query
/// and grid threshold.
pub fn q_error_mean(est: &CardNetEstimator, test: &Workload) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for lq in &test.queries {
        let p = est.prepare(&lq.query);
        for (j, &theta) in test.thresholds.iter().enumerate() {
            let c = f64::from(lq.cards[j]).max(1.0);
            let e = est.estimate_prepared(&p, theta).max(1.0);
            sum += (e / c).max(c / e);
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

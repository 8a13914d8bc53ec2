//! The measured phase shared by the workloads.
//!
//! A phase issues requests for `--seconds` of request time. It stops the
//! request clock for `update_cycles` update cycles placed at evenly spaced
//! points of that time, so every run prices the same updates, spread over
//! the host's speed regimes, and the latency windows cover requests only.
//! The workloads differ only in how they issue requests ([`Driver`]).
//!
//! Generators use at most two threads and one connection; the threads and
//! connections they open are counted in [`Gen`].

use crate::checks::Checks;
use crate::stats::{Summary, Windows};
use crate::system::{request_frame, Inputs, System, UpdateRecord};
use crate::trace::Tracer;
use cardest_core::estimator::CardinalityEstimator;
use cardest_serve::{Frame, NetClient, ResponseFrame, ServeModel, WireSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Threads and connections a generator used at once (smoke-tested against
/// `nproc`).
#[derive(Default, Clone, Copy)]
pub struct Gen {
    pub threads: usize,
    pub connections: usize,
}

impl Gen {
    pub fn at_least(&mut self, threads: usize, connections: usize) {
        self.threads = self.threads.max(threads);
        self.connections = self.connections.max(connections);
    }
}

/// A served answer kept for the bit-identity check.
struct Answer {
    key: usize,
    epoch: u64,
    bits: u64,
}

/// A uniform sample (reservoir) of at most `cap` served answers between
/// two verifications, so the check's cost and memory do not grow with the
/// request count.
pub struct Answers {
    items: Vec<Answer>,
    cap: usize,
    seen: u64,
    rng: StdRng,
}

impl Answers {
    pub fn new(cap: usize, seed: u64) -> Answers {
        Answers {
            items: Vec::with_capacity(cap),
            cap,
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn offer(&mut self, key: usize, epoch: u64, bits: u64) {
        self.seen += 1;
        let a = Answer { key, epoch, bits };
        if self.items.len() < self.cap {
            self.items.push(a);
        } else {
            let j = self.rng.gen_range(0..self.seen) as usize;
            if j < self.cap {
                self.items[j] = a;
            }
        }
    }

    fn take(&mut self) -> Vec<Answer> {
        self.seen = 0;
        std::mem::take(&mut self.items)
    }
}

/// Served answers against the unbatched `estimate(q, θ)` of the model that
/// served them, tallied over every verified sample.
#[derive(Default)]
pub struct IdentityCheck {
    checked: usize,
    bad: usize,
    first_bad: String,
}

impl IdentityCheck {
    /// Verifies (and empties) `answers`, all served by `model`.
    pub fn verify(&mut self, model: &ServeModel, inp: &Inputs, answers: &mut Answers) {
        let mut reference: HashMap<usize, u64> = HashMap::new();
        for a in answers.take() {
            let (idx, theta) = inp.key(a.key);
            let want = *reference.entry(a.key % inp.keys.len()).or_insert_with(|| {
                model
                    .estimator
                    .estimate(&inp.ds.records[idx], theta)
                    .to_bits()
            });
            self.checked += 1;
            if a.epoch != model.epoch || want != a.bits {
                if self.bad == 0 {
                    self.first_bad = format!(
                        "record {idx} θ {theta}: served {} at epoch {}, unbatched {} at epoch {}",
                        f64::from_bits(a.bits),
                        a.epoch,
                        f64::from_bits(want),
                        model.epoch
                    );
                }
                self.bad += 1;
            }
        }
    }

    pub fn report(&self, checks: &mut Checks) {
        checks.check(
            "bit_identical_to_unbatched",
            self.bad == 0 && self.checked > 0,
            format!(
                "{} of {} sampled answers differ {}",
                self.bad, self.checked, self.first_bad
            ),
        );
    }
}

/// Sampled threshold curves must be non-decreasing (the paper's guarantee).
pub fn check_curves(sys: &System, inp: &Inputs, checks: &mut Checks) {
    let live = sys.live();
    let est = &live.estimator;
    let theta_max = *inp.grid.last().expect("non-empty grid");
    let n = 64.min(inp.ds.len());
    let bad = (0..n)
        .filter(|i| {
            let rec = &inp.ds.records[i * inp.ds.len() / n];
            !est.curve(&est.prepare(rec), theta_max).is_non_decreasing()
        })
        .count();
    checks.check(
        "curves_non_decreasing",
        bad == 0,
        format!("{bad} of {n} sampled curves decrease"),
    );
}

/// The request clock: wall time minus the update cycles.
pub struct Clock {
    start: Instant,
    paused: Duration,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            start: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    fn now(&self) -> Duration {
        self.start.elapsed() - self.paused
    }
}

/// What a driver's requests feed: the windows, the answer sample, tallies.
pub struct Run<'a> {
    clock: Clock,
    windows: Windows,
    answers: Answers,
    tracer: &'a mut Tracer,
    cursor: usize,
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    fn next_key(&mut self) -> usize {
        self.cursor += 1;
        self.cursor - 1
    }

    fn done(&mut self, lat: Duration) {
        self.windows.record(self.clock.now(), lat.as_nanos() as u64);
        self.attempted += 1;
    }
}

/// How one workload issues its requests.
pub trait Driver {
    /// Issues requests until the request clock reaches `until`, leaving
    /// none in flight.
    fn segment(&mut self, sys: &System, inp: &Inputs, until: Duration, run: &mut Run);
    /// One read after a publish; returns the epoch that answered.
    fn first_read(&mut self, sys: &System, inp: &Inputs, key: usize) -> Result<u64, String>;
    /// The output checks only this driver can make.
    fn finish(&mut self, sys: &System, run: &Run, checks: &mut Checks);
}

/// What a measured phase produced.
pub struct Phase {
    pub summary: Summary,
    pub attempted: u64,
    pub failed: u64,
    pub updates: Vec<UpdateRecord>,
}

/// Runs `driver` for `secs` seconds of request time with `cycles` update
/// cycles at evenly spaced points, then the checks on what it served.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    sys: &mut System,
    inp: &Inputs,
    driver: &mut dyn Driver,
    secs: f64,
    width: Duration,
    cycles: usize,
    insert: usize,
    cursor: &mut usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Phase {
    let phase = Duration::from_secs_f64(secs);
    let mut identity = IdentityCheck::default();
    let mut updates = Vec::with_capacity(cycles);
    let mut run = Run {
        clock: Clock::start(),
        windows: Windows::new(phase, width),
        answers: Answers::new(256, *cursor as u64),
        tracer,
        cursor: *cursor,
        attempted: 0,
        failed: 0,
    };
    for j in 0..=cycles {
        let until = phase.mul_f64((j + 1) as f64 / (cycles + 1) as f64);
        driver.segment(sys, inp, until, &mut run);
        // The request clock stops for the check and the update cycle.
        let stopped = Instant::now();
        identity.verify(&sys.live(), inp, &mut run.answers);
        if j < cycles {
            let key = run.next_key();
            let record = sys.update_cycle(inp.inserts(j, insert), run.tracer, &mut |sys| {
                driver.first_read(sys, inp, key)
            });
            updates.push(record);
        }
        run.clock.paused += stopped.elapsed();
    }
    *cursor = run.cursor;
    driver.finish(sys, &run, checks);
    let stale: Vec<String> = updates
        .iter()
        .filter(|u| u.first_read_epoch != Ok(u.epoch))
        .map(|u| format!("published {} read {:?}", u.epoch, u.first_read_epoch))
        .collect();
    checks.check(
        "reads_after_publish_carry_new_epoch",
        stale.is_empty(),
        format!("{} update cycles, stale: {stale:?}", updates.len()),
    );
    identity.report(checks);
    check_curves(sys, inp, checks);
    Phase {
        summary: run.windows.finish(),
        attempted: run.attempted,
        failed: run.failed,
        updates,
    }
}

// ── estimate_inproc ──────────────────────────────────────────────────────

/// Closed loop on one thread: `prepare` + `estimate_batch(&[q], &[θ])` over
/// distinct uniformly drawn (record, θ) pairs. No service, no cache.
pub struct Inproc;

impl Driver for Inproc {
    fn segment(&mut self, sys: &System, inp: &Inputs, until: Duration, run: &mut Run) {
        let live = sys.live();
        let est = &live.estimator;
        while run.clock.now() < until {
            let k = run.next_key();
            let (idx, theta) = inp.key(k);
            let rec = &inp.ds.records[idx];
            let t = Instant::now();
            run.tracer.enter("request", k as u64);
            let p = run
                .tracer
                .span("core.estimator.prepare", k as u64, || est.prepare(rec));
            let e = run
                .tracer
                .span("core.estimator.estimate_batch", k as u64, || {
                    est.estimate_batch(&[&p], &[theta])
                });
            run.tracer.exit();
            run.done(t.elapsed());
            match e.as_slice() {
                [one] => run.answers.offer(k, live.epoch, one.value.to_bits()),
                _ => run.failed += 1,
            }
        }
    }

    fn first_read(&mut self, sys: &System, inp: &Inputs, key: usize) -> Result<u64, String> {
        let (idx, theta) = inp.key(key);
        sys.read_once(&inp.ds.records[idx], theta)
    }

    fn finish(&mut self, _sys: &System, run: &Run, checks: &mut Checks) {
        checks.check(
            "one_reply_per_request",
            run.failed == 0,
            format!(
                "{} of {} calls did not return exactly one estimate",
                run.failed, run.attempted
            ),
        );
    }
}

// ── serve_zipf ───────────────────────────────────────────────────────────

pub fn is_failure(r: &ResponseFrame) -> bool {
    r.degraded || r.source == WireSource::ShedBracket
}

/// Replies per request id (ids count up from 0); every id must get exactly
/// one.
#[derive(Default)]
pub struct ReplyLedger {
    counts: Vec<u8>,
}

impl ReplyLedger {
    /// Registers the next request; returns its id.
    pub fn sent(&mut self) -> u64 {
        self.counts.push(0);
        self.counts.len() as u64 - 1
    }

    pub fn replied(&mut self, id: u64) -> bool {
        match self.counts.get_mut(id as usize) {
            Some(c) => {
                *c = c.saturating_add(1);
                true
            }
            None => false,
        }
    }

    /// `(requests sent, requests with exactly one reply)`.
    pub fn tally(&self) -> (usize, usize) {
        (
            self.counts.len(),
            self.counts.iter().filter(|&&c| c == 1).count(),
        )
    }
}

/// Remote clients over one TCP connection: `inflight` requests pipelined,
/// a new one sent per answer. Each request is timed from its send.
pub struct Socket {
    client: NetClient,
    inflight: usize,
    ledger: ReplyLedger,
    /// Send time and key of every request in flight, by id.
    open: HashMap<u64, (Instant, usize)>,
    served_before: u64,
    update_reads: u64,
}

impl Socket {
    /// Connects and runs an untimed closed loop for `warmup_s`, which fills
    /// the cache to its steady state before anything is measured.
    pub fn connect(
        sys: &System,
        inp: &Inputs,
        inflight: usize,
        warmup_s: f64,
        gen: &mut Gen,
    ) -> Socket {
        let mut s = Socket {
            client: connect(sys.addr(), gen),
            inflight,
            ledger: ReplyLedger::default(),
            open: HashMap::with_capacity(inflight),
            served_before: sys.service().stats().requests,
            update_reads: 0,
        };
        let warm = Duration::from_secs_f64(warmup_s);
        let mut off = Tracer::new(false);
        let mut run = Run {
            clock: Clock::start(),
            windows: Windows::new(warm, warm),
            answers: Answers::new(0, 0),
            tracer: &mut off,
            // Warm from the second half of the key stream, so the measured
            // requests do not replay the warm-up's.
            cursor: inp.keys.len() / 2,
            attempted: 0,
            failed: 0,
        };
        s.segment(sys, inp, warm, &mut run);
        s
    }

    fn send(&mut self, inp: &Inputs, run: &mut Run) -> std::io::Result<()> {
        let k = run.next_key();
        let id = self.ledger.sent();
        let (idx, theta) = inp.key(k);
        self.open.insert(id, (Instant::now(), k));
        let bytes = run.tracer.span("serve.wire.encode", id, || {
            request_frame(id, &inp.ds.records[idx], theta).encode()
        });
        let client = &mut self.client;
        run.tracer
            .span("net.write", id, || client.stream().write_all(&bytes))
    }
}

impl Driver for Socket {
    fn segment(&mut self, _sys: &System, inp: &Inputs, until: Duration, run: &mut Run) {
        while self.open.len() < self.inflight.max(1) && run.clock.now() < until {
            if self.send(inp, run).is_err() {
                break;
            }
        }
        while !self.open.is_empty() {
            let client = &mut self.client;
            let f = run.tracer.span("net.read_decode", 0, || client.recv());
            match f {
                Ok(Frame::Response(r)) if self.ledger.replied(r.request_id) => {
                    if let Some((t, k)) = self.open.remove(&r.request_id) {
                        run.done(t.elapsed());
                        if is_failure(&r) {
                            run.failed += 1;
                        } else {
                            run.answers.offer(k, r.epoch, r.estimate.to_bits());
                        }
                    }
                }
                Ok(Frame::Error(e)) => {
                    self.ledger.replied(e.request_id);
                    self.open.remove(&e.request_id);
                    run.failed += 1;
                }
                Ok(_) => run.failed += 1,
                Err(_) => {
                    run.failed += self.open.len() as u64;
                    self.open.clear();
                    return;
                }
            }
            if run.clock.now() < until && self.send(inp, run).is_err() {
                return;
            }
        }
    }

    fn first_read(&mut self, _sys: &System, inp: &Inputs, key: usize) -> Result<u64, String> {
        self.update_reads += 1;
        let (idx, theta) = inp.key(key);
        let id = u64::MAX - self.update_reads;
        self.client
            .send(&request_frame(id, &inp.ds.records[idx], theta))
            .map_err(|e| e.to_string())?;
        match self.client.recv() {
            Ok(Frame::Response(r)) if r.request_id == id => Ok(r.epoch),
            Ok(other) => Err(format!("unexpected frame {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    fn finish(&mut self, sys: &System, _run: &Run, checks: &mut Checks) {
        let pong = self.client.ping(7).unwrap_or(false);
        let (sent, once) = self.ledger.tally();
        checks.check(
            "one_reply_per_request",
            sent == once && pong,
            format!(
                "{once} of {sent} requests got exactly one reply; \
                 no stray frame before the closing pong: {pong}"
            ),
        );
        let served = sys.service().stats().requests - self.served_before;
        checks.check(
            "counters_reconcile",
            served == sent as u64 + self.update_reads,
            format!(
                "client sent {sent} (+{} update reads), received {once}, server counted {served}",
                self.update_reads
            ),
        );
    }
}

/// Opens one loopback connection, counted against the generator.
pub fn connect(addr: SocketAddr, gen: &mut Gen) -> NetClient {
    gen.at_least(1, 1);
    NetClient::connect(addr).expect("connect to the loopback server")
}

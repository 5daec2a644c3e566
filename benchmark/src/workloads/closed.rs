//! The closed-loop load generator: every client keeps exactly one request
//! in flight and issues the next the moment the previous one is verified.
//! It never sleeps — on the socket tier the only waiting is the
//! transport's own, inside `Stack::pump`.

use std::time::{Duration, Instant};

use fortress_core::system::Stack;
use fortress_net::{NetEvent, Transport};

use super::{Accepted, LoadClient, TIMEOUT};
use crate::trace::Trace;

/// When the logical clock advances.
#[derive(Clone, Copy, Debug)]
pub enum StepClock {
    /// One `Stack::end_step` after this many issued requests (in-process
    /// runs: no wall clock anywhere).
    EveryRequests(u64),
    /// One `Stack::end_step` per this much wall time (socket runs).
    Wall(Duration),
}

/// How long a segment runs: a fixed amount of work, so that repetitions
/// replay each other slice for slice and counts, memory and (where cost
/// depends on history, as on S0) the rate itself do not move with the
/// host's speed — under a wall-clock guard that ends a segment early on a
/// box too slow for the work.
#[derive(Clone, Copy, Debug)]
pub struct Until {
    /// Stop once this many requests have been issued.
    pub issued: u64,
    /// Stop once this much wall time has passed.
    pub guard: Duration,
}

impl Until {
    /// `n` requests, however long they take (warm-ups and probes).
    pub fn issued(n: u64) -> Until {
        Until {
            issued: n,
            guard: Duration::MAX,
        }
    }
}

/// One client of the loop.
pub struct Slot {
    name: String,
    client: LoadClient,
    /// Sequence number and issue instant of the request in flight.
    in_flight: Option<(u64, Instant)>,
}

/// What one segment of the loop did.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// Wall time from the first issue to the end of the last round.
    pub elapsed: Duration,
    /// Requests issued and resolved (answered or timed out) in the segment.
    pub issued: u64,
    /// Requests answered with a verified response.
    pub answered: u64,
    /// Requests that hit [`TIMEOUT`] unanswered.
    pub timed_out: u64,
    /// Delivered frames that failed verification.
    pub invalid: u64,
    /// Issue-to-verified latency of every answered request, ns.
    pub latencies_ns: Vec<u64>,
    /// Calls to `Stack::pump`.
    pub pumps: u64,
    /// Seconds each consecutive slice of [`SLICE`] answered requests took.
    pub slice_secs: Vec<f64>,
}

/// Answered requests per timed slice: a few milliseconds of work, short
/// enough that a burst of host interference spoils few slices.
pub const SLICE: u64 = 50;

/// A stack plus its closed-loop clients.
pub struct ClosedLoop<T: Transport> {
    /// The system under load.
    pub stack: Stack<T>,
    slots: Vec<Slot>,
    clock: StepClock,
    events: Vec<NetEvent>,
    round: u64,
    since_step: u64,
}

impl<T: Transport> ClosedLoop<T> {
    /// Attaches `clients` closed-loop clients (`lg0`, `lg1`, …) to `stack`.
    pub fn new(mut stack: Stack<T>, clients: usize, clock: StepClock) -> ClosedLoop<T> {
        let slots = (0..clients)
            .map(|i| {
                let name = format!("lg{i}");
                let client = LoadClient::attach(&mut stack, &name);
                Slot {
                    name,
                    client,
                    in_flight: None,
                }
            })
            .collect();
        ClosedLoop {
            stack,
            slots,
            clock,
            events: Vec::new(),
            round: 0,
            since_step: 0,
        }
    }

    /// Runs rounds of issue → pump → drain → verify until `until`. A
    /// request still unresolved when the segment ends is not counted.
    pub fn run<Tr: Trace>(&mut self, until: Until, tr: &mut Tr) -> Segment {
        let mut seg = Segment::default();
        let start = Instant::now();
        let mut next_step_at = start;
        if let StepClock::Wall(tick) = self.clock {
            next_step_at += tick;
        }
        let mut issued_total = 0u64;
        let mut slice_began = start;
        loop {
            let now = Instant::now();
            if issued_total >= until.issued || now.duration_since(start) >= until.guard {
                break;
            }
            self.round += 1;
            tr.set_request(self.round);
            let round = tr.begin("round");

            for slot in &mut self.slots {
                if slot.in_flight.is_some() {
                    continue;
                }
                let issued_at = Instant::now();
                let s = tr.begin("core.client.request");
                let req = slot.client.request();
                tr.end(s);
                let s = tr.begin("core.stack.submit");
                self.stack.submit(&slot.name, &req);
                tr.end(s);
                slot.in_flight = Some((req.seq, issued_at));
                issued_total += 1;
                self.since_step += 1;
            }

            let s = tr.begin("core.stack.pump");
            self.stack.pump();
            tr.end(s);
            seg.pumps += 1;

            for slot in &mut self.slots {
                let s = tr.begin("core.stack.drain_client");
                self.events.clear();
                self.stack.drain_client_into(&slot.name, &mut self.events);
                tr.end(s);
                let s = tr.begin("core.client.on_response");
                for ev in &self.events {
                    let Some(payload) = ev.payload() else {
                        continue;
                    };
                    match slot.client.accept(payload) {
                        Accepted::Answer(seq) => {
                            if let Some((_, issued_at)) = slot.in_flight.take_if(|f| f.0 == seq) {
                                seg.latencies_ns.push(issued_at.elapsed().as_nanos() as u64);
                                seg.answered += 1;
                                seg.issued += 1;
                                if seg.answered % SLICE == 0 {
                                    let now = Instant::now();
                                    seg.slice_secs.push((now - slice_began).as_secs_f64());
                                    slice_began = now;
                                }
                            }
                        }
                        Accepted::Redundant => {}
                        Accepted::Invalid => seg.invalid += 1,
                    }
                }
                tr.end(s);
                if slot
                    .in_flight
                    .is_some_and(|(_, at)| at.elapsed() >= TIMEOUT)
                {
                    slot.in_flight = None;
                    seg.timed_out += 1;
                    seg.issued += 1;
                }
            }
            tr.end(round);

            match self.clock {
                StepClock::EveryRequests(n) => {
                    if self.since_step >= n {
                        self.since_step = 0;
                        self.end_step(tr);
                    }
                }
                StepClock::Wall(tick) => {
                    let now = Instant::now();
                    while next_step_at <= now {
                        self.end_step(tr);
                        next_step_at += tick;
                    }
                }
            }
        }
        seg.elapsed = start.elapsed();
        seg
    }

    fn end_step<Tr: Trace>(&mut self, tr: &mut Tr) {
        let s = tr.begin("core.stack.end_step");
        self.stack.end_step();
        tr.end(s);
    }
}

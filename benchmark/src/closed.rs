//! Closed-loop driver: one caller per engine slot, each sending its next
//! request the moment its previous one completes, driven from one thread
//! straight through [`BatchEngine`]. A slow engine therefore receives less
//! load; what is measured is the saturated engine, not a queue.
//!
//! The loop first runs a *ramp*: one request per client whose length grows
//! with the client's number, so that clients sending requests of one fixed
//! shape finish apart and stay apart. From then on the loop is periodic
//! (every completion is followed by the same prefill and the same number of
//! steps), every request meets the same interference from the other slots,
//! and the timed window opens at the ramp's last completion.
//!
//! The window is cut into *rounds* at completion instants, so a round holds
//! whole periods and no window edge. The rates the end-to-end metrics report
//! are quartiles over rounds, not totals: a neighbour on the shared host
//! only ever slows a round down, so the fast quartile is what the program
//! does on the machine left alone, and it holds still while up to three
//! quarters of a run are disturbed.
//!
//! Every prefill and decode call is timed around the call (a span at the
//! engine boundary), so token gaps are what a streaming client of a slot
//! would see: the gap between two tokens of one sequence includes the time
//! other slots' prefills held the engine.

use std::time::{Duration, Instant};

use dsi_core::batch::BatchEngine;

use crate::gen::Req;
use crate::probe;

/// A round ends at the first completion at least this long after it began.
const ROUND_MIN: Duration = Duration::from_millis(750);

/// One completed request of the list (ramp requests are not kept).
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the request list.
    pub index: usize,
    pub tokens: Vec<usize>,
    pub ttft_ms: f64,
    /// Pick of the request for a free slot → its last token.
    pub latency_ms: f64,
    /// Completed inside the timed window.
    pub timed: bool,
}

/// One stretch of the window between two completion instants.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub wall_s: f64,
    /// Output tokens emitted inside it.
    pub tokens: u64,
    /// Process CPU time (all threads) spent inside it.
    pub cpu_s: f64,
}

#[derive(Debug, Default)]
pub struct ClosedRun {
    /// Opening of the window → the last completion inside it.
    pub wall_s: f64,
    /// Output tokens emitted in that stretch.
    pub tokens: u64,
    /// Process CPU time (all threads) spent in that stretch.
    pub cpu_s: f64,
    pub rounds: Vec<Round>,
    pub done: Vec<Done>,
    /// Engine calls that returned `Err`.
    pub failed: u64,
    /// Gap before each token after a sequence's first, ms (window only, as
    /// everything below).
    pub gaps_ms: Vec<f64>,
    /// Duration of each `decode_step` call, µs.
    pub step_us: Vec<f64>,
    pub prefill_s: f64,
    pub prefill_tokens: u64,
    /// From `kv_stats()` sampled after every step.
    pub kv_high_water: usize,
    kv_reserved: u64,
    kv_used: u64,
}

impl ClosedRun {
    /// Share of reserved KV token capacity holding no token, over all steps.
    pub fn kv_slack_share(&self) -> f64 {
        if self.kv_reserved == 0 {
            0.0
        } else {
            1.0 - self.kv_used as f64 / self.kv_reserved as f64
        }
    }

    /// Requests completed inside the window.
    pub fn timed(&self) -> impl Iterator<Item = &Done> {
        self.done.iter().filter(|d| d.timed)
    }
}

struct Client<'a> {
    req: &'a Req,
    /// Index into the request list; `None` for a ramp request.
    index: Option<usize>,
    picked: Instant,
    ttft_ms: f64,
    last_token: Instant,
    tokens: Vec<usize>,
    /// KV rows this sequence has written.
    context: usize,
}

/// The open window's clock: where it and its current round began.
struct Window {
    opened: Instant,
    round_from: Instant,
    round_tokens: u64,
    round_cpu: f64,
    opened_cpu: f64,
    /// Tokens emitted since the window opened.
    tokens: u64,
    /// The last completion: instant, tokens emitted and CPU seconds up to it.
    last_done: Option<(Instant, u64, f64)>,
}

/// Drive `eng` with one closed-loop caller per request of `ramp`, each
/// starting with its ramp request and continuing over `reqs` (wrapping
/// around if the window outlasts the list). The window opens when the last
/// ramp request completes and closes `window` later, once a request has
/// completed inside it (so that a window shorter than one request, as in
/// `--smoke`, still yields outputs to check); the step in flight at that
/// moment completes.
pub fn run<E: BatchEngine>(eng: &mut E, ramp: &[Req], reqs: &[Req], window: Duration) -> ClosedRun {
    let clients = ramp.len();
    assert!(clients <= eng.max_slots());
    let mut out = ClosedRun::default();
    let mut slots: Vec<Option<Client>> = (0..clients).map(|_| None).collect();
    let mut active: Vec<usize> = Vec::with_capacity(clients);
    let mut step_out: Vec<usize> = Vec::with_capacity(clients);
    let mut next = 0usize;
    let mut ramp_left = clients;
    let mut ramped = vec![false; clients];
    let mut win: Option<Window> = None;

    while win
        .as_ref()
        .is_none_or(|w| w.opened.elapsed() < window || w.last_done.is_none())
    {
        // Each idle client sends its next request.
        for (slot, client) in slots.iter_mut().enumerate() {
            if client.is_some() {
                continue;
            }
            let (req, index) = if !std::mem::replace(&mut ramped[slot], true) {
                (&ramp[slot], None)
            } else {
                next += 1;
                (&reqs[(next - 1) % reqs.len()], Some(next - 1))
            };
            let picked = Instant::now();
            match eng.prefill(slot, &req.prompt) {
                Ok(tok) => {
                    let now = Instant::now();
                    if let Some(w) = win.as_mut() {
                        out.prefill_s += (now - picked).as_secs_f64();
                        out.prefill_tokens += req.prompt.len() as u64;
                        w.tokens += 1;
                    }
                    let mut tokens = Vec::with_capacity(req.n_tokens);
                    tokens.push(tok);
                    *client = Some(Client {
                        req,
                        index,
                        picked,
                        ttft_ms: ms(now - picked),
                        last_token: now,
                        tokens,
                        context: req.prompt.len(),
                    });
                }
                Err(e) => {
                    eprintln!("prefill of request {index:?} failed: {e}");
                    out.failed += 1;
                    ramp_left -= usize::from(index.is_none());
                }
            }
        }
        retire(eng, &mut slots, &mut out, &mut win, &mut ramp_left);

        active.clear();
        active.extend(
            slots
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_some())
                .map(|(s, _)| s),
        );
        if active.is_empty() {
            continue;
        }
        step_out.clear();
        let t_step = Instant::now();
        let stepped = eng.decode_step(&active, &mut step_out);
        let now = Instant::now();
        if let Err(e) = stepped {
            eprintln!("decode step failed: {e}");
            out.failed += active.len() as u64;
            for &s in &active {
                eng.release(s);
                let c = slots[s].take().expect("active slot");
                ramp_left -= usize::from(c.index.is_none());
            }
            continue;
        }
        let mut used = 0u64;
        for (&s, &tok) in active.iter().zip(&step_out) {
            let c = slots[s].as_mut().expect("active slot");
            if win.is_some() {
                out.gaps_ms.push(ms(now - c.last_token));
            }
            c.last_token = now;
            c.tokens.push(tok);
            c.context += 1;
            used += c.context as u64;
        }
        if let Some(w) = win.as_mut() {
            w.tokens += active.len() as u64;
            out.step_us.push((now - t_step).as_secs_f64() * 1e6);
            if let Some(kv) = eng.kv_stats() {
                out.kv_high_water = out.kv_high_water.max(kv.high_water);
                out.kv_reserved += (kv.pages_in_use * kv.page_tokens) as u64;
                out.kv_used += used;
            }
        }
        retire(eng, &mut slots, &mut out, &mut win, &mut ramp_left);
    }

    let w = win.expect("the loop ends inside the window");
    let (last, tokens, cpu) = w.last_done.expect("the loop ends after a completion");
    out.wall_s = (last - w.opened).as_secs_f64();
    out.tokens = tokens;
    out.cpu_s = cpu - w.opened_cpu;
    for (slot, client) in slots.iter_mut().enumerate() {
        if client.take().is_some() {
            eng.release(slot);
        }
    }
    out
}

/// Complete every client whose request has all its tokens; open the window
/// behind the ramp's last completion, close a round that is long enough.
fn retire<E: BatchEngine>(
    eng: &mut E,
    slots: &mut [Option<Client>],
    out: &mut ClosedRun,
    win: &mut Option<Window>,
    ramp_left: &mut usize,
) {
    let mut completed = false;
    for (slot, client) in slots.iter_mut().enumerate() {
        if client
            .as_ref()
            .is_none_or(|c| c.tokens.len() < c.req.n_tokens)
        {
            continue;
        }
        let c = client.take().expect("checked above");
        eng.release(slot);
        match c.index {
            None => *ramp_left -= 1,
            Some(index) => {
                completed |= win.is_some();
                out.done.push(Done {
                    index,
                    latency_ms: ms(c.last_token - c.picked),
                    ttft_ms: c.ttft_ms,
                    tokens: c.tokens,
                    timed: win.is_some(),
                });
            }
        }
    }
    let now = Instant::now();
    match win {
        Some(w) if completed => {
            let cpu = probe::cpu_seconds();
            w.last_done = Some((now, w.tokens, cpu));
            if now - w.round_from >= ROUND_MIN {
                out.rounds.push(Round {
                    wall_s: (now - w.round_from).as_secs_f64(),
                    tokens: w.tokens - w.round_tokens,
                    cpu_s: cpu - w.round_cpu,
                });
                (w.round_from, w.round_tokens, w.round_cpu) = (now, w.tokens, cpu);
            }
        }
        Some(_) => {}
        None => {
            if *ramp_left == 0 {
                let cpu = probe::cpu_seconds();
                *win = Some(Window {
                    opened: now,
                    round_from: now,
                    round_tokens: 0,
                    round_cpu: cpu,
                    opened_cpu: cpu,
                    tokens: 0,
                    last_done: None,
                });
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_core::batch::EngineError;

    /// Emits its step count as every token, so a request's last token tells
    /// the step it completed at.
    struct Fake {
        slots: usize,
        steps: usize,
    }

    impl BatchEngine for Fake {
        fn max_slots(&self) -> usize {
            self.slots
        }
        fn prefill(&mut self, _slot: usize, _prompt: &[usize]) -> Result<usize, EngineError> {
            Ok(self.steps)
        }
        fn decode_step(
            &mut self,
            slots: &[usize],
            out: &mut Vec<usize>,
        ) -> Result<(), EngineError> {
            self.steps += 1;
            out.extend(slots.iter().map(|_| self.steps));
            Ok(())
        }
        fn release(&mut self, _slot: usize) {}
    }

    fn req(n_tokens: usize) -> Req {
        Req {
            prompt: vec![1, 2, 3],
            n_tokens,
        }
    }

    #[test]
    fn ramp_staggers_clients_and_the_window_opens_behind_it() {
        let mut eng = Fake { slots: 4, steps: 0 };
        // Ramp requests of 4, 8, 12 and 16 tokens complete at steps 3, 7, 11
        // and 15 (the first token comes from the prefill).
        let ramp: Vec<Req> = (1..=4).map(|k| req(4 * k)).collect();
        let reqs = vec![req(16); 8];
        let run = run(&mut eng, &ramp, &reqs, Duration::from_millis(20));

        // No ramp request is kept, and the list is served in order, wrapping.
        assert!(run.done.iter().all(|d| d.tokens.len() == 16 && d.timed));
        assert!(run.done.iter().enumerate().all(|(i, d)| d.index == i));
        assert!(run.done.len() > reqs.len());
        // Client 0 picked request 0 at step 3 and completed it 15 steps
        // later; from then on the clients complete three or four steps
        // apart, never two at once.
        let at: Vec<usize> = run.done.iter().map(|d| d.tokens[15]).collect();
        assert_eq!(at[..5], [18, 22, 26, 30, 33]);
        assert!(at.windows(2).all(|w| matches!(w[1] - w[0], 3 | 4)));
        // The window opened at step 15 and is counted up to the last
        // completion: four tokens a step, one per prefill, of which there is
        // one behind the opening and one behind every completion but the
        // last.
        let last = *at.last().unwrap() as u64;
        assert_eq!(run.tokens, 4 * (last - 15) + run.done.len() as u64);
        assert_eq!(run.failed, 0);
    }
}

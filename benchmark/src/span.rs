//! In-memory spans around calls into each layer, and their self times.
//!
//! The trace pass records one [`Span`] per call into a layer: which region,
//! when it started and ended, and the span that caused it. Spans stay in
//! memory until the run ends. A span's self time is its duration minus the
//! part of that interval its children cover.

use std::time::Instant;

/// What a span timed. `Prefill` and `Decode` are whole passes of the replica
/// step loop (the parents); the rest are the calls those passes make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Prefill,
    Decode,
    Embed,
    /// `OffloadStore::acquire` (streamed weights only).
    Acquire,
    Qkv,
    KvWrite,
    Attn,
    Wo,
    Ff1,
    Ff2,
    Logits,
}

pub const KINDS: usize = Kind::Logits as usize + 1;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rows in the pass (`Prefill`/`Decode` only).
    pub rows: u32,
    /// KV rows the pass's attention reads in one layer (`Prefill`/`Decode`).
    pub kv_rows: u64,
}

/// Span recorder: open/close maintain the parent stack.
#[derive(Debug)]
pub struct Spans {
    base: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Self {
        Spans {
            base: Instant::now(),
            spans: Vec::with_capacity(n),
            stack: Vec::with_capacity(4),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, kind: Kind) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            kind,
            parent,
            start_ns,
            end_ns: start_ns,
            rows: 0,
            kv_rows: 0,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Close a pass span, recording its row count and KV rows read.
    pub fn close_pass(&mut self, id: u32, rows: usize, kv_rows: u64) {
        self.close(id);
        let s = &mut self.spans[id as usize];
        s.rows = rows as u32;
        s.kv_rows = kv_rows;
    }

    /// Time `f` as a `kind` span.
    pub fn time<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let id = self.open(kind);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time of every span, in ns: duration minus the direct children's
/// durations (children never overlap: one thread, strictly nested).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

/// Totals of one pass kind (`Prefill` or `Decode`).
#[derive(Debug, Clone, Default)]
pub struct PassTotals {
    pub passes: u64,
    pub rows: u64,
    pub kv_rows: u64,
    pub wall_ns: u64,
    /// Self time by [`Kind`]; the pass's own slot holds what no child covers.
    pub self_ns: [u64; KINDS],
}

impl PassTotals {
    pub fn of(&self, k: Kind) -> u64 {
        self.self_ns[k as usize]
    }

    /// Time in the four layer GEMM regions plus the logits projection.
    pub fn gemm_ns(&self) -> u64 {
        [Kind::Qkv, Kind::Wo, Kind::Ff1, Kind::Ff2, Kind::Logits]
            .iter()
            .map(|&k| self.of(k))
            .sum()
    }
}

/// Aggregate self times under each pass kind: `(prefill, decode)`.
pub fn aggregate(spans: &[Span]) -> (PassTotals, PassTotals) {
    let selfs = self_times(spans);
    let mut pre = PassTotals::default();
    let mut dec = PassTotals::default();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let pass = if s.parent == NO_PARENT {
            s
        } else {
            &spans[s.parent as usize]
        };
        let t = match pass.kind {
            Kind::Prefill => &mut pre,
            Kind::Decode => &mut dec,
            other => panic!("top-level span must be a pass, found {other:?}"),
        };
        if s.parent == NO_PARENT {
            t.passes += 1;
            t.rows += s.rows as u64;
            t.kv_rows += s.kv_rows;
            t.wall_ns += s.end_ns - s.start_ns;
        }
        t.self_ns[s.kind as usize] += self_ns;
    }
    (pre, dec)
}

/// Cost of recording one span, measured on empty spans (ns).
pub fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut s = Spans::with_capacity(N + 1);
    let pass = s.open(Kind::Decode);
    let t0 = Instant::now();
    for _ in 0..N {
        s.time(Kind::Embed, || ());
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    s.close(pass);
    std::hint::black_box(&s.spans);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            parent,
            start_ns,
            end_ns,
            rows: 0,
            kv_rows: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(Kind::Decode, NO_PARENT, 0, 100),
            span(Kind::Qkv, 0, 10, 40),
            span(Kind::Attn, 0, 40, 45),
            span(Kind::Prefill, NO_PARENT, 100, 300),
            span(Kind::Qkv, 3, 120, 220),
        ];
        assert_eq!(self_times(&spans), vec![65, 30, 5, 100, 100]);
        let (pre, dec) = aggregate(&spans);
        assert_eq!((dec.passes, dec.wall_ns), (1, 100));
        assert_eq!(dec.of(Kind::Qkv), 30);
        assert_eq!(dec.of(Kind::Attn), 5);
        assert_eq!(dec.of(Kind::Decode), 65); // what no child covers
        assert_eq!(pre.of(Kind::Qkv), 100);
        assert_eq!(pre.of(Kind::Prefill), 100);
        // Self times partition the wall time of the passes.
        assert_eq!(dec.self_ns.iter().sum::<u64>(), dec.wall_ns);
        assert_eq!(pre.self_ns.iter().sum::<u64>(), pre.wall_ns);
    }

    #[test]
    fn recorder_nests_and_carries_pass_facts() {
        let mut s = Spans::with_capacity(8);
        let pass = s.open(Kind::Decode);
        s.time(Kind::Embed, || ());
        s.time(Kind::Qkv, || ());
        s.close_pass(pass, 8, 4096);
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans[1].parent, 0);
        assert_eq!(s.spans[2].parent, 0);
        assert_eq!(s.spans[0].parent, NO_PARENT);
        assert_eq!((s.spans[0].rows, s.spans[0].kv_rows), (8, 4096));
        assert!(s.spans[0].end_ns >= s.spans[2].end_ns);
    }
}

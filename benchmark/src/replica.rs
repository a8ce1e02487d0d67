//! The trace replica: a decode step loop the benchmark owns, composed from
//! the public kernel region calls over the public packed weights, with a span
//! around every call. It implements [`BatchEngine`], so the same closed-loop
//! driver that measures the engine drives it, and its tokens are compared
//! with the engine's.
//!
//! Because the replica is part of the frozen benchmark, a later change to the
//! engine's own step does not move the region rows measured here; it shows as
//! a change of `model.step_unattributed_share` (engine step time the
//! replica's regions do not account for), which may go negative.

use std::ops::Deref;
use std::sync::Arc;

use dsi_core::batch::{BatchEngine, EngineError};
use dsi_kernels::blocked::{self, PackedB, PanelWeights};
use dsi_kernels::fused::{self, PagedKvView};
use dsi_kernels::tensor::Tensor;
use dsi_model::config::GptConfig;
use dsi_model::fast::{argmax, PackedLayer, PackedModel};
use dsi_model::paged::{PagePool, PageStats, PagedSeq};
use dsi_zero::offload::OffloadStore;

use crate::span::{Kind, Spans};

const LN_EPS: f32 = 1e-5;

/// Where the replica's weights come from: resident packed layers, or layer
/// panels checked out of the offload tier one at a time.
pub trait Weights {
    type B: PanelWeights;
    type LogitsB: PanelWeights;
    type Layer: Deref<Target = PackedLayer<Self::B>>;
    fn config(&self) -> &GptConfig;
    fn wte(&self) -> &Tensor;
    fn wpe(&self) -> &Tensor;
    /// Final layer-norm gain and bias.
    fn lnf(&self) -> (&[f32], &[f32]);
    fn logits_w(&self) -> &Self::LogitsB;
    /// Layer `l`'s weights, held until the returned guard drops.
    fn layer(&self, l: usize, spans: &mut Spans) -> Result<Self::Layer, EngineError>;
}

impl<'a, B: PanelWeights> Weights for &'a PackedModel<'_, B> {
    type B = B;
    type LogitsB = B;
    type Layer = &'a PackedLayer<B>;

    fn config(&self) -> &GptConfig {
        PackedModel::config(self)
    }
    fn wte(&self) -> &Tensor {
        &self.model.wte
    }
    fn wpe(&self) -> &Tensor {
        &self.model.wpe
    }
    fn lnf(&self) -> (&[f32], &[f32]) {
        (self.model.lnf_g.data(), self.model.lnf_b.data())
    }
    fn logits_w(&self) -> &B {
        &self.wte_packed
    }
    fn layer(&self, l: usize, _spans: &mut Spans) -> Result<&'a PackedLayer<B>, EngineError> {
        Ok(&self.layers[l])
    }
}

/// Weights streamed from the tier: the replica calls `acquire` and
/// `prefetch_ahead` itself, in `StreamedEngine`'s order, and times the wait.
pub struct Streamed<'a>(pub &'a OffloadStore);

impl Streamed<'_> {
    /// Packed operand bytes one pass streams: the four GEMM operands of
    /// every layer panel (one geometry) plus the logits projection.
    pub fn gemm_bytes_per_pass(&self) -> usize {
        let p = self.0.acquire(0).expect("layer 0 panel");
        let layer = [&p.w_qkv, &p.w_o, &p.w_ff1, &p.w_ff2]
            .iter()
            .map(|w| w.storage_bytes())
            .sum::<usize>();
        layer * self.0.layers() + self.0.resident().wte_packed.storage_bytes()
    }
}

impl Weights for Streamed<'_> {
    type B = PackedB;
    type LogitsB = PackedB;
    type Layer = Arc<PackedLayer<PackedB>>;

    fn config(&self) -> &GptConfig {
        self.0.config()
    }
    fn wte(&self) -> &Tensor {
        &self.0.resident().wte
    }
    fn wpe(&self) -> &Tensor {
        &self.0.resident().wpe
    }
    fn lnf(&self) -> (&[f32], &[f32]) {
        let r = self.0.resident();
        (&r.lnf_g, &r.lnf_b)
    }
    fn logits_w(&self) -> &PackedB {
        &self.0.resident().wte_packed
    }
    fn layer(&self, l: usize, spans: &mut Spans) -> Result<Self::Layer, EngineError> {
        let panel = spans
            .time(Kind::Acquire, || self.0.acquire(l))
            .map_err(|e| EngineError::classified(e.to_string()))?;
        self.0.prefetch_ahead(l + 1);
        Ok(panel)
    }
}

struct Slot {
    seq: PagedSeq,
    /// Context rows written (`PagedSeq` keeps its own count private).
    len: usize,
    /// The last emitted token, fed by the next decode step.
    last: usize,
}

/// One row of a pass: which slot's sequence, which token, at which position.
#[derive(Clone, Copy)]
struct Row {
    slot: usize,
    token: usize,
    pos: usize,
}

pub struct Replica<W: Weights> {
    w: W,
    pool: PagePool,
    slots: Vec<Option<Slot>>,
    pub spans: Spans,
    rows: Vec<Row>,
    x: Vec<f32>,
    y: Vec<f32>,
    normed: Vec<f32>,
    qkv: Vec<f32>,
    attn: Vec<f32>,
    ff: Vec<f32>,
    logits: Vec<f32>,
}

impl<W: Weights> Replica<W> {
    /// `max_rows` bounds a pass: the longest prompt or the slot count.
    pub fn new(
        w: W,
        max_slots: usize,
        max_rows: usize,
        pages_total: usize,
        page_tokens: usize,
        span_capacity: usize,
    ) -> Self {
        let c = w.config();
        let (h, vocab) = (c.hidden, c.vocab);
        let m = max_rows.max(max_slots);
        Replica {
            pool: PagePool::new(c.layers, h, pages_total, page_tokens),
            slots: (0..max_slots).map(|_| None).collect(),
            spans: Spans::with_capacity(span_capacity),
            rows: Vec::with_capacity(m),
            x: vec![0.0; m * h],
            y: vec![0.0; m * h],
            normed: vec![0.0; m * h],
            qkv: vec![0.0; m * 3 * h],
            attn: vec![0.0; m * h],
            ff: vec![0.0; m * 4 * h],
            logits: vec![0.0; m * vocab],
            w,
        }
    }

    /// One pass over `self.rows`: the engine's region sequence (embed; per
    /// layer LN+QKV, KV write, attention, W_o, LN+FF1+GeLU, FF2; final LN +
    /// logits), every region under its own span. Writing all K/V rows of a
    /// layer before attending is the engine's prefill order and, row by row,
    /// the same arithmetic as its decode order (decode rows belong to
    /// different sequences).
    fn pass(&mut self, kind: Kind) -> Result<(), EngineError> {
        let Replica {
            w,
            pool,
            slots,
            spans,
            rows,
            x,
            y,
            normed,
            qkv,
            attn,
            ff,
            logits,
        } = self;
        let c = w.config();
        let (h, heads, vocab) = (c.hidden, c.heads, c.vocab);
        let pt = pool.page_tokens();
        let m = rows.len();
        let pass = spans.open(kind);

        spans.time(Kind::Embed, || {
            for (i, r) in rows.iter().enumerate() {
                assert!(r.token < vocab, "token id {} out of vocab", r.token);
                assert!(r.pos < c.max_seq, "sequence exceeds max_seq");
                let (te, pe) = (w.wte().row(r.token), w.wpe().row(r.pos));
                for (o, (&t, &p)) in x[i * h..(i + 1) * h].iter_mut().zip(te.iter().zip(pe)) {
                    *o = t + p;
                }
            }
        });

        for l in 0..c.layers {
            let pl = match w.layer(l, spans) {
                Ok(pl) => pl,
                Err(e) => {
                    spans.close_pass(pass, m, 0);
                    return Err(e);
                }
            };
            spans.time(Kind::Qkv, || {
                fused::ln_matmul_bias_into(
                    &x[..m * h],
                    m,
                    &pl.ln1_g,
                    &pl.ln1_b,
                    LN_EPS,
                    &pl.w_qkv,
                    &pl.b_qkv,
                    &mut normed[..m * h],
                    &mut qkv[..m * 3 * h],
                )
            });
            spans.time(Kind::KvWrite, || {
                for (i, r) in rows.iter().enumerate() {
                    let seq = &slots[r.slot].as_ref().expect("row of a free slot").seq;
                    let row = &qkv[i * 3 * h..(i + 1) * 3 * h];
                    pool.write_row(seq, l, r.pos, &row[h..2 * h], &row[2 * h..3 * h]);
                }
            });
            spans.time(Kind::Attn, || {
                let (ka, va) = pool.arenas(l);
                for (i, r) in rows.iter().enumerate() {
                    let seq = &slots[r.slot].as_ref().expect("row of a free slot").seq;
                    fused::attention_row_paged_into(
                        &qkv[i * 3 * h..i * 3 * h + h],
                        &PagedKvView {
                            k: ka,
                            v: va,
                            pages: seq.pages(),
                            page_tokens: pt,
                            len: r.pos + 1,
                            offset: r.pos,
                        },
                        heads,
                        &mut attn[i * h..(i + 1) * h],
                    );
                }
            });
            spans.time(Kind::Wo, || {
                blocked::matmul_bias_add_into(
                    &attn[..m * h],
                    m,
                    &pl.w_o,
                    &pl.b_o,
                    &x[..m * h],
                    &mut y[..m * h],
                )
            });
            std::mem::swap(x, y);
            spans.time(Kind::Ff1, || {
                fused::ln_matmul_bias_gelu_into(
                    &x[..m * h],
                    m,
                    &pl.ln2_g,
                    &pl.ln2_b,
                    LN_EPS,
                    &pl.w_ff1,
                    &pl.b_ff1,
                    &mut normed[..m * h],
                    &mut ff[..m * 4 * h],
                )
            });
            spans.time(Kind::Ff2, || {
                blocked::matmul_bias_add_into(
                    &ff[..m * 4 * h],
                    m,
                    &pl.w_ff2,
                    &pl.b_ff2,
                    &x[..m * h],
                    &mut y[..m * h],
                )
            });
            std::mem::swap(x, y);
        }

        spans.time(Kind::Logits, || {
            let (g, b) = w.lnf();
            for i in 0..m {
                fused::layernorm_row_into(
                    &x[i * h..(i + 1) * h],
                    g,
                    b,
                    LN_EPS,
                    &mut normed[i * h..(i + 1) * h],
                );
            }
            blocked::matmul_into(&normed[..m * h], m, w.logits_w(), &mut logits[..m * vocab]);
        });
        let kv_rows = rows.iter().map(|r| r.pos as u64 + 1).sum();
        spans.close_pass(pass, m, kv_rows);
        Ok(())
    }

    fn greedy(&self, row: usize) -> usize {
        let vocab = self.w.config().vocab;
        argmax(&self.logits[row * vocab..(row + 1) * vocab])
    }

    /// Grow `slot`'s page table to hold `tokens` context rows.
    fn reserve(pool: &mut PagePool, seq: &mut PagedSeq, tokens: usize) -> Result<(), EngineError> {
        // `seq`'s own length stays 0 (only the engine can advance it), so
        // the additional-token argument is the whole target.
        pool.reserve(seq, tokens).map_err(EngineError::from)
    }
}

impl<W: Weights> BatchEngine for Replica<W> {
    fn max_slots(&self) -> usize {
        self.slots.len()
    }

    fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, EngineError> {
        assert!(
            self.slots[slot].is_none(),
            "prefill into occupied slot {slot}"
        );
        assert!(!prompt.is_empty(), "empty prompt");
        let mut seq = PagedSeq::new();
        Self::reserve(&mut self.pool, &mut seq, prompt.len())?;
        self.slots[slot] = Some(Slot {
            seq,
            len: 0,
            last: 0,
        });
        self.rows.clear();
        self.rows.extend(
            prompt
                .iter()
                .enumerate()
                .map(|(pos, &token)| Row { slot, token, pos }),
        );
        if let Err(e) = self.pass(Kind::Prefill) {
            self.release(slot);
            return Err(e);
        }
        let tok = self.greedy(prompt.len() - 1);
        let s = self.slots[slot].as_mut().expect("just filled");
        s.len = prompt.len();
        s.last = tok;
        Ok(tok)
    }

    fn decode_step(&mut self, slots: &[usize], out: &mut Vec<usize>) -> Result<(), EngineError> {
        assert!(!slots.is_empty(), "decode_step: empty batch");
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "decode_step: slots must be ascending"
        );
        self.rows.clear();
        for &si in slots {
            let s = self.slots[si].as_mut().expect("decode of free slot");
            Self::reserve(&mut self.pool, &mut s.seq, s.len + 1)?;
            self.rows.push(Row {
                slot: si,
                token: s.last,
                pos: s.len,
            });
        }
        self.pass(Kind::Decode)?;
        for (r, &si) in slots.iter().enumerate() {
            let next = self.greedy(r);
            let s = self.slots[si].as_mut().expect("occupied");
            s.len += 1;
            s.last = next;
            out.push(next);
        }
        Ok(())
    }

    fn release(&mut self, slot: usize) {
        let mut s = self.slots[slot].take().expect("release of free slot");
        self.pool.release(&mut s.seq);
    }

    fn pages_for(&self, tokens: usize) -> usize {
        self.pool.pages_for(tokens)
    }

    fn kv_stats(&self) -> Option<PageStats> {
        Some(self.pool.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_model::reference::GptModel;

    /// The replica must emit the solo session's tokens, batched and paged,
    /// across a page boundary, or its spans time something else than the
    /// engine's regions.
    #[test]
    fn replica_matches_solo_sessions() {
        let cfg = GptConfig {
            name: "replica-test".into(),
            hidden: 32,
            layers: 2,
            heads: 4,
            vocab: 50,
            max_seq: 64,
        };
        let model = GptModel::random(cfg, 5);
        let pm = PackedModel::pack(&model);
        let prompts = [vec![1usize, 2, 3, 4, 5], vec![9, 8, 7]];
        let mut rep = Replica::new(&pm, 2, 8, 16, 4, 1024);
        let mut streams: Vec<Vec<usize>> = prompts
            .iter()
            .enumerate()
            .map(|(s, p)| vec![rep.prefill(s, p).unwrap()])
            .collect();
        for _ in 1..10 {
            let mut out = Vec::new();
            rep.decode_step(&[0, 1], &mut out).unwrap();
            for (s, t) in out.into_iter().enumerate() {
                streams[s].push(t);
            }
        }
        for (s, p) in prompts.iter().enumerate() {
            assert_eq!(streams[s], pm.session(p.len()).generate(p, 10), "slot {s}");
        }
        rep.release(0);
        rep.release(1);
        assert_eq!(rep.kv_stats().unwrap().pages_in_use, 0);
        let (pre, dec) = crate::span::aggregate(&rep.spans.spans);
        assert_eq!((pre.passes, dec.passes), (2, 9));
        assert_eq!((pre.rows, dec.rows), (8, 18));
    }
}

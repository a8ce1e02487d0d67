//! Batched serving over the functional reference: multiple independent
//! sequences with per-sequence KV caches, ragged prompts, and early
//! termination — the request-level structure that the paper's scheduling
//! work (micro-batches of sequences, Sec. IV-C1) operates on.
//!
//! This is reference-level code: a step is one reference forward per
//! unfinished sequence, sampled in sequence order (the RNG consumption
//! order is part of the session's observable behaviour). The executed
//! batched path — one ragged M-row pass over packed weights and paged KV —
//! is [`crate::paged::Engine`], which this session serves as an oracle for.

use crate::reference::{GptModel, KvCache};
use crate::sampling::Sampler;
use dsi_kernels::tensor::Tensor;
use serde::Serialize;

/// State of one sequence in a batch.
#[derive(Debug, Clone)]
pub struct SequenceState {
    /// All tokens so far (prompt + generated).
    pub tokens: Vec<usize>,
    /// Tokens generated so far.
    pub generated: usize,
    pub finished: bool,
}

/// Batched generation session over a shared model.
pub struct BatchSession<'m> {
    pub model: &'m GptModel,
    pub sequences: Vec<SequenceState>,
    /// `caches[i]` is sequence `i`'s KV context.
    pub caches: Vec<KvCache>,
    /// Token id that terminates a sequence (greedy EOS), if any.
    pub eos: Option<usize>,
    /// Per-sequence generation cap.
    pub max_new_tokens: usize,
}

/// Summary of a completed batch run.
#[derive(Debug, Clone, Serialize)]
pub struct BatchReport {
    pub sequences: usize,
    pub total_generated: usize,
    pub steps: usize,
}

impl<'m> BatchSession<'m> {
    /// Start a session: process every prompt (ragged lengths allowed).
    pub fn new(model: &'m GptModel, prompts: &[Vec<usize>], max_new_tokens: usize) -> Self {
        assert!(!prompts.is_empty());
        let cfg = &model.config;
        let sequences = prompts
            .iter()
            .map(|p| {
                assert!(!p.is_empty(), "empty prompt");
                SequenceState { tokens: p.clone(), generated: 0, finished: false }
            })
            .collect();
        BatchSession {
            model,
            sequences,
            caches: prompts.iter().map(|_| KvCache::new(cfg.layers, cfg.hidden)).collect(),
            eos: None,
            max_new_tokens,
        }
    }

    /// Prompt phase: run every sequence's prompt, emit each one's first
    /// generated token via the sampler.
    pub fn prompt(&mut self, sampler: &mut Sampler) {
        for (s, cache) in self.sequences.iter_mut().zip(&mut self.caches) {
            let logits = self.model.forward(&s.tokens, cache);
            let last = logits.row_slice(logits.rows() - 1, logits.rows());
            let next = sampler.sample(last.row(0));
            s.tokens.push(next);
            s.generated = 1;
            s.finished = Some(next) == self.eos || s.generated >= self.max_new_tokens;
        }
    }

    /// One generation step: every unfinished sequence advances by one
    /// token, one reference forward each. Returns how many sequences are
    /// still active.
    pub fn step(&mut self, sampler: &mut Sampler) -> usize {
        for (s, cache) in self.sequences.iter_mut().zip(&mut self.caches) {
            if s.finished {
                continue;
            }
            let last = *s.tokens.last().unwrap();
            let logits = self.model.forward(&[last], cache);
            let next = sampler.sample(logits.row(0));
            s.tokens.push(next);
            s.generated += 1;
            if Some(next) == self.eos || s.generated >= self.max_new_tokens {
                s.finished = true;
            }
        }
        self.sequences.iter().filter(|s| !s.finished).count()
    }

    /// Run to completion.
    pub fn run(&mut self, sampler: &mut Sampler) -> BatchReport {
        self.prompt(sampler);
        let mut steps = 1;
        while self.step(sampler) > 0 {
            steps += 1;
            assert!(steps <= self.max_new_tokens + 1, "runaway generation");
        }
        BatchReport {
            sequences: self.sequences.len(),
            total_generated: self.sequences.iter().map(|s| s.generated).sum(),
            steps,
        }
    }

    /// Generated suffix of sequence `i`.
    pub fn output(&self, i: usize) -> &[usize] {
        let s = &self.sequences[i];
        &s.tokens[s.tokens.len() - s.generated..]
    }

    /// Aggregate KV bytes across the batch (the Sec. IV-B3 capacity
    /// pressure, observable).
    pub fn kv_bytes(&self) -> usize {
        self.caches.iter().map(KvCache::total_bytes).sum()
    }

    /// Logits of the full batch's last tokens, stacked (for inspection).
    pub fn last_logits(&mut self) -> Tensor {
        let rows: Vec<Tensor> = self
            .sequences
            .iter()
            .zip(&self.caches)
            .map(|(s, cache)| {
                let last = *s.tokens.last().unwrap();
                // Peek without mutating: clone the cache.
                self.model.forward(&[last], &mut cache.clone())
            })
            .collect();
        let refs: Vec<&Tensor> = rows.iter().collect();
        Tensor::cat_rows(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplerConfig;
    use crate::zoo;

    fn model() -> GptModel {
        GptModel::random(zoo::tiny(2), 5)
    }

    #[test]
    fn batched_greedy_matches_sequential_generate() {
        let m = model();
        let prompts = vec![vec![1, 2, 3], vec![9, 8, 7, 6]];
        let mut session = BatchSession::new(&m, &prompts, 5);
        let mut sampler = Sampler::new(SamplerConfig::greedy(), 0);
        session.run(&mut sampler);
        for (i, p) in prompts.iter().enumerate() {
            let want = m.generate(p, 5);
            assert_eq!(session.output(i), &want[..], "sequence {i}");
        }
    }

    #[test]
    fn ragged_prompts_supported() {
        let m = model();
        let prompts = vec![vec![1], vec![2, 3, 4, 5, 6, 7, 8]];
        let mut session = BatchSession::new(&m, &prompts, 3);
        let mut sampler = Sampler::new(SamplerConfig::greedy(), 0);
        let report = session.run(&mut sampler);
        assert_eq!(report.sequences, 2);
        assert_eq!(report.total_generated, 6);
        // The cache holds the prompt plus every *forwarded* token; the last
        // sampled token is never fed back, so context = prompt + gen - 1.
        assert_eq!(session.caches[0].context_len(), 1 + 3 - 1);
        assert_eq!(session.caches[1].context_len(), 7 + 3 - 1);
    }

    #[test]
    fn eos_terminates_early() {
        let m = model();
        // Find the first greedy token and use it as EOS: the sequence must
        // finish after one token.
        let first = m.generate(&[1, 2, 3], 1)[0];
        let mut session = BatchSession::new(&m, &[vec![1, 2, 3]], 10);
        session.eos = Some(first);
        let mut sampler = Sampler::new(SamplerConfig::greedy(), 0);
        let report = session.run(&mut sampler);
        assert_eq!(report.total_generated, 1);
        assert!(session.sequences[0].finished);
    }

    #[test]
    fn kv_bytes_grow_with_generation() {
        let m = model();
        let mut session = BatchSession::new(&m, &[vec![1, 2]], 4);
        let mut sampler = Sampler::new(SamplerConfig::greedy(), 0);
        session.prompt(&mut sampler);
        let b1 = session.kv_bytes();
        session.step(&mut sampler);
        assert!(session.kv_bytes() > b1);
    }

    #[test]
    fn finished_sequences_do_not_advance() {
        let m = model();
        let mut session = BatchSession::new(&m, &[vec![1, 2], vec![3, 4]], 2);
        let mut sampler = Sampler::new(SamplerConfig::greedy(), 0);
        session.prompt(&mut sampler);
        session.sequences[0].finished = true;
        let len_before = session.sequences[0].tokens.len();
        session.step(&mut sampler);
        assert_eq!(session.sequences[0].tokens.len(), len_before);
        assert_eq!(session.sequences[1].generated, 2);
    }
}

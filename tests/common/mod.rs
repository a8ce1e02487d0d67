//! Helpers shared by the integration suites.

use deepspeed_inference::kernels::blocked::PanelWeights;
use deepspeed_inference::model::fast::PackedModel;
use deepspeed_inference::model::paged::PagedEngine;

/// Greedy-decode every prompt to `max_new` tokens through one `PagedEngine`
/// (slot `i` = prompt `i`, all slots stepped together).
pub fn paged_decode<B: PanelWeights>(
    pm: &PackedModel<'_, B>,
    prompts: &[Vec<usize>],
    max_new: usize,
    page_tokens: usize,
) -> Vec<Vec<usize>> {
    let longest = prompts.iter().map(Vec::len).max().unwrap_or(1) + max_new;
    let pages = prompts.len() * longest.div_ceil(page_tokens);
    let mut eng = PagedEngine::new(pm, prompts.len(), pages, page_tokens);
    let mut streams: Vec<Vec<usize>> = prompts
        .iter()
        .enumerate()
        .map(|(slot, p)| vec![eng.prefill(slot, p).expect("pool sized for the batch")])
        .collect();
    let slots: Vec<usize> = (0..prompts.len()).collect();
    let mut out = Vec::with_capacity(slots.len());
    for _ in 1..max_new {
        out.clear();
        eng.decode(&slots, &mut out).expect("pool sized for the batch");
        for (stream, &t) in streams.iter_mut().zip(&out) {
            stream.push(t);
        }
    }
    streams
}

/// Build `m` ragged prompts from a generated pool of lengths and tokens.
pub fn build_prompts(m: usize, lens: &[usize], tokens: &[usize]) -> Vec<Vec<usize>> {
    let mut prompts = Vec::with_capacity(m);
    let mut cursor = 0usize;
    for i in 0..m {
        let len = lens[i % lens.len()];
        let p: Vec<usize> =
            (0..len).map(|j| tokens[(cursor + j) % tokens.len()]).collect();
        cursor += len;
        prompts.push(p);
    }
    prompts
}

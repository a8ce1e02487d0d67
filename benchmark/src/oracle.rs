//! The correctness oracle: a seeded sample of completed requests recomputed
//! with a solo `FastSession` of the same weights, outside the timed window.
//! Every engine emits the solo session's token stream for a prompt, batched,
//! paged or streamed, so any difference is a wrong output.

use dsi_kernels::blocked::PanelWeights;
use dsi_model::fast::PackedModel;

use crate::gen::{Req, Rng};
use crate::report::Opts;

/// The oracle recomputes at most this many tokens of a sampled request (a
/// prefix of its stream): 32 tokens cross two 16-token page boundaries, and
/// eight 512-token prompts already cost 4 s.
const MAX_TOKENS: usize = 32;

/// Check a sample of `done` (request, tokens it was answered with); returns
/// `(sampled, mismatches)`.
pub fn check<B: PanelWeights>(
    pm: &PackedModel<B>,
    max_prompt: usize,
    opts: &Opts,
    mut done: Vec<(&Req, &[usize])>,
) -> (u64, u64) {
    let mut rng = Rng::new(opts.seed ^ 0x0C1E);
    let mut session = pm.session(max_prompt);
    let (mut sampled, mut mismatches) = (0, 0);
    while sampled < opts.oracle_n() as u64 && !done.is_empty() {
        let (req, tokens) = done.swap_remove(rng.below(done.len()));
        let k = req.n_tokens.min(MAX_TOKENS);
        session.reset();
        if tokens.len() != req.n_tokens || tokens[..k] != session.generate(&req.prompt, k)[..] {
            eprintln!(
                "oracle mismatch on a request of {} prompt tokens",
                req.prompt.len()
            );
            mismatches += 1;
        }
        sampled += 1;
    }
    (sampled, mismatches)
}

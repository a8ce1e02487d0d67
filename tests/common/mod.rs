//! Helpers shared by the integration suites.

use deepspeed_inference::kernels::blocked::PanelWeights;
use deepspeed_inference::model::fast::{PackedModel, WeightSource};
use deepspeed_inference::model::paged::{Engine, PagedEngine};

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

/// `n` prompts drawn from 1–3 shared-prefix families with ragged suffixes.
/// Family prefixes span the page-boundary cases (shorter than a page,
/// exactly one or two pages, a page and a bit), suffixes run from empty to
/// a page and a bit, so some prompts end exactly on a page boundary and
/// some are nothing but their family's prefix.
pub fn build_family_prompts(
    n: usize,
    families: usize,
    page_tokens: usize,
    picks: &[usize],
    tokens: &[usize],
) -> Vec<Vec<usize>> {
    let pt = page_tokens;
    let prefix_lens = [pt - 1, pt, pt + 1, 2 * pt, 2 * pt + 2];
    let prefixes: Vec<Vec<usize>> = (0..families)
        .map(|f| {
            let len = prefix_lens[picks[f] % prefix_lens.len()];
            (0..len).map(|j| tokens[(7 * f + j) % tokens.len()]).collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            let pick = picks[(families + i) % picks.len()];
            let mut p = prefixes[pick % families].clone();
            let suffix = (pick / families) % (pt + 2);
            p.extend((0..suffix).map(|j| tokens[(13 * i + j + 1) % tokens.len()]));
            p
        })
        .collect()
}

/// Drive one `paged::Engine` over `w` — a resident packed model or the
/// offload tier — through a schedule of joins, ragged decode
/// steps, retirements, single-slot prefix replays and whole-batch
/// recoveries (release everything, then replay everything) over `prompts`,
/// `ops` choosing the next transition. After **every** transition the books
/// must hold — `in_use` equals the distinct pages the live tables
/// reference, `total == in_use + free`, the tables keep the sharing
/// discipline `verify::scratch::check_page_tables` proves, a recovery needs
/// no more pages than the batch held before it — and at the end every
/// stream must equal its solo `FastSession` over `oracle` (the same weights,
/// resident) and every page must be free.
pub fn shared_prefix_churn<W: WeightSource, B: PanelWeights>(
    w: W,
    oracle: &PackedModel<'_, B>,
    prompts: &[Vec<usize>],
    page_tokens: usize,
    max_new: usize,
    ops: &[usize],
) where
    W::Error: std::fmt::Debug,
{
    use deepspeed_inference::verify::scratch::check_page_tables;
    use std::collections::BTreeSet;

    let slots = prompts.len().min(4);
    let longest = prompts.iter().map(Vec::len).max().expect("at least one prompt") + max_new;
    let pages = slots * longest.div_ceil(page_tokens);
    let mut eng = Engine::new(w, slots, pages, page_tokens);
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); prompts.len()];
    // `seated[slot]` = the prompt index resident in that slot.
    let mut seated: Vec<Option<usize>> = vec![None; slots];
    let mut next = 0usize;

    let audit = |eng: &Engine<W>, what: &str| {
        let tables = eng.page_tables();
        let distinct: BTreeSet<u32> = tables.iter().flat_map(|(t, _)| t.iter().copied()).collect();
        let st = eng.pool_stats();
        assert_eq!(st.pages_in_use, distinct.len(), "after {what}: in_use != distinct referenced");
        assert_eq!(st.pages_total, st.pages_in_use + st.pages_free, "after {what}: pool identity");
        let diags = check_page_tables(st.pages_total, page_tokens, &tables);
        assert!(diags.is_empty(), "after {what}: {diags:?}");
    };
    // The context a replay re-prefills: the prompt plus every generated
    // token but the last (whose row only the step that consumes it writes).
    let committed = |i: usize, streams: &[Vec<usize>]| -> Vec<usize> {
        let s = &streams[i];
        prompts[i].iter().chain(&s[..s.len() - 1]).copied().collect()
    };

    let mut cursor = 0usize;
    let mut step_out = Vec::new();
    loop {
        let active: Vec<usize> = (0..slots).filter(|&s| seated[s].is_some()).collect();
        let free_slot = (0..slots).find(|&s| seated[s].is_none());
        let can_join = next < prompts.len() && free_slot.is_some();
        if !can_join && active.is_empty() {
            break;
        }
        // Past the scripted ops the schedule runs itself out: join while a
        // slot is free, decode otherwise.
        let op = ops.get(cursor).copied().unwrap_or(if can_join { 0 } else { 1 });
        cursor += 1;
        match op % 5 {
            0 if can_join => {
                let slot = free_slot.expect("can_join");
                let tok = eng.prefill(slot, &prompts[next]).expect("pool fits every slot");
                streams[next].push(tok);
                seated[slot] = Some(next);
                next += 1;
                audit(&eng, "join");
            }
            3 if !active.is_empty() => {
                let slot = active[(op / 5) % active.len()];
                let i = seated[slot].expect("active");
                eng.release(slot);
                audit(&eng, "release for replay");
                let tok = eng.prefill(slot, &committed(i, &streams)).expect("replay fits");
                assert_eq!(Some(&tok), streams[i].last(), "prompt {i}: replay diverged");
                audit(&eng, "replay");
            }
            4 if !active.is_empty() => {
                let before = eng.pool_stats().pages_in_use;
                for &slot in &active {
                    eng.release(slot);
                }
                audit(&eng, "release-all");
                for &slot in &active {
                    let i = seated[slot].expect("active");
                    let tok = eng.prefill(slot, &committed(i, &streams)).expect("recovery fits");
                    assert_eq!(Some(&tok), streams[i].last(), "prompt {i}: recovery diverged");
                }
                audit(&eng, "recovery");
                assert!(
                    eng.pool_stats().pages_in_use <= before,
                    "recovery needed {} pages, the batch held {before}",
                    eng.pool_stats().pages_in_use
                );
            }
            _ if !active.is_empty() => {
                step_out.clear();
                eng.decode(&active, &mut step_out).expect("pool fits every slot");
                for (&slot, &tok) in active.iter().zip(&step_out) {
                    streams[seated[slot].expect("active")].push(tok);
                }
                audit(&eng, "decode");
            }
            _ => {}
        }
        for (slot, seat) in seated.iter_mut().enumerate() {
            if seat.is_some_and(|i| streams[i].len() >= max_new) {
                eng.release(slot);
                *seat = None;
                audit(&eng, "retire");
            }
        }
    }
    let st = eng.pool_stats();
    assert_eq!((st.pages_in_use, st.pages_free), (0, st.pages_total), "everything free at the end");
    for (i, p) in prompts.iter().enumerate() {
        streams[i].truncate(max_new);
        assert_eq!(streams[i], oracle.session(p.len()).generate(p, max_new), "prompt {i} ({p:?})");
    }
}

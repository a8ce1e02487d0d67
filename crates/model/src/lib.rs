//! # dsi-model — transformer model definitions and functional reference
//!
//! Six pieces:
//!
//! * [`config`] — GPT-style decoder, BERT-style encoder, and MoE model
//!   configurations with exact parameter / FLOP / KV-cache accounting. These
//!   are the quantities every roofline in the reproduction is built from.
//! * [`zoo`] — the concrete models of the paper's evaluation: Table I's
//!   dense family (GPT-2 1.5B through LM-530B), Table II's sparse family
//!   (52B through 2T MoE), and the Fig. 12 encoders (DistilBERT, BERT).
//! * [`reference`](mod@reference) — a complete functional GPT
//!   implementation (embedding, transformer stack, KV cache, greedy
//!   decoding) on the CPU kernels of `dsi-kernels`. It is the ground truth
//!   that tensor-parallel sharding, MoE routing rewrites, and fused kernels
//!   are verified against.
//! * [`fast`] — the executed Deep-Fusion path: the same decoder built from
//!   packed-weight blocked GEMMs, the five Fig. 1(c) fused region kernels,
//!   an amortized in-place KV cache, and reusable scratch, so steady-state
//!   decode allocates nothing per token. Verified token-for-token against
//!   [`reference`](mod@reference).
//! * [`paged`] — the paged KV pool and the multi-slot engine over any
//!   [`WeightSource`], the execution surface of continuous batching; its
//!   [`record`] of a pass is every slice the step handed a kernel.
//! * [`io`] — the checksummed weight file the offload tier streams layer
//!   panels from.

pub mod config;
pub mod fast;
pub mod io;
pub mod paged;
pub mod record;
pub mod reference;
pub mod team;
pub mod zoo;

pub use config::{BertConfig, GptConfig, MoeConfig};
pub use fast::{
    FastSession, KvSink, PackedLayer, PackedModel, QuantizedFastSession, QuantizedPackedModel, Row,
    WeightSource,
};
pub use paged::{PagePool, PageStats, PagedEngine, PagedSeq, PagesExhausted};
pub use reference::{GptModel, KvCache, LayerKv, LayerWeights};

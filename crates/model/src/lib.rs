//! # dsi-model — transformer model definitions and functional reference
//!
//! Three pieces:
//!
//! * [`config`] — GPT-style decoder, BERT-style encoder, and MoE model
//!   configurations with exact parameter / FLOP / KV-cache accounting. These
//!   are the quantities every roofline in the reproduction is built from.
//! * [`zoo`] — the concrete models of the paper's evaluation: Table I's
//!   dense family (GPT-2 1.5B through LM-530B), Table II's sparse family
//!   (52B through 2T MoE), and the Fig. 12 encoders (DistilBERT, BERT).
//! * [`reference`](mod@reference) — a complete functional GPT
//!   implementation (embedding, transformer stack, KV cache, greedy
//!   decoding) on the CPU kernels of `dsi-kernels`. It is the ground truth that tensor-parallel sharding,
//!   MoE routing rewrites, and fused kernels are verified against.

//! * [`fast`] — the executed Deep-Fusion path: the same decoder built from
//!   packed-weight blocked GEMMs, the four Fig. 1(c) fused region kernels,
//!   an amortized in-place KV cache, and reusable scratch, so steady-state
//!   decode allocates nothing per token. Verified token-for-token against
//!   [`reference`](mod@reference).

pub mod batched;
pub mod beam;
pub mod config;
pub mod encoder;
pub mod fast;
pub mod io;
pub mod paged;
pub mod reference;
pub mod sampling;
pub mod zoo;

pub use batched::BatchSession;
pub use beam::beam_search;
pub use encoder::BertModel;
pub use config::{BertConfig, GptConfig, MoeConfig};
pub use fast::{
    FastSession, KvSink, PackedLayer, PackedModel, QuantizedFastSession, QuantizedPackedModel, Row,
    WeightSource,
};
pub use paged::{PagePool, PageStats, PagedEngine, PagedSeq, PagesExhausted};
pub use reference::{GptModel, KvCache, LayerKv, LayerWeights};
pub use sampling::{Sampler, SamplerConfig};

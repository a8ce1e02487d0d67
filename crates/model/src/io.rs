//! Model checkpoints: a compact binary format for saving/loading the
//! functional models (weights are the unit ZeRO-Inference pins to NVMe —
//! a serving system needs them on disk).
//!
//! Format v3: magic `DSI1`, version, the config as a JSON-free binary
//! header, then a **panel directory** — one `(byte length, CRC32C)` entry
//! per panel — followed by the panel payloads back to back, everything
//! little-endian.
//!
//! * Panel 0 is the *resident group* (embeddings + final layer-norm: the
//!   tensors every token touches at both ends of the stack), four
//!   row-major tensors, each `(rank, dims..., f32 data)`.
//! * Panel `1 + l` is layer `l` **in execution layout**: twelve pieces in
//!   [`PackedLayer`] field order. A vector is a length-prefixed run
//!   `(len, f32 × len)`; a GEMM operand is `(k, n, PANEL, f32 ×
//!   packed_len(k, n))` — the [`PackedB`] float array exactly as
//!   `dsi_kernels::blocked` streams it. A tier reader therefore *copies* a
//!   layer, it does not rebuild one. `k`/`n` are checked against the
//!   config, and the recorded `PANEL` against this build's, so a file
//!   packed for another panel width is a typed error, never a silent
//!   mis-stride.
//!
//! v2 stored layers row-major and checksummed with IEEE CRC32; it is not
//! read (`BadVersion(2)`) — no weight file is checked in and every caller
//! writes its own, so there is nothing to stay compatible with.
//!
//! The directory serves two consumers:
//! * [`from_bytes`] — whole-model load, which verifies every panel
//!   checksum and rebuilds the row-major [`GptModel`] by the inverse
//!   permutation ([`PackedB::unpack`]), so save → load is a bitwise
//!   round-trip oracle for the layout;
//! * `dsi-zero`'s `OffloadStore` — random access: seek to one layer's
//!   panel, [`CopiedPanel::copy_from`] it, [`CopiedPanel::verify`] the
//!   copy, without touching the rest of a file that may be much larger
//!   than memory.
//!
//! All failure paths are typed ([`IoError`]); loading validates magic,
//! version, structural consistency, and per-panel integrity.

use crate::config::GptConfig;
use crate::fast::PackedLayer;
use crate::reference::GptModel;
use bytes::{Buf, BufMut};
use dsi_kernels::blocked::{PackedB, PANEL};
use dsi_kernels::tensor::Tensor;
use std::fs;
use std::io::{BufWriter, Cursor, Seek, SeekFrom, Write};
use std::path::Path;

mod checksum;
pub use checksum::{checksum, Checksum};

const MAGIC: &[u8; 4] = b"DSI1";
const VERSION: u16 = 3;
/// Bytes of one directory entry: `(u64 length, u32 checksum)`.
const DIR_ENTRY: usize = 12;

/// Checkpoint errors.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    /// Not a checkpoint / wrong magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Structurally inconsistent payload.
    Corrupt(&'static str),
    /// A panel's stored CRC32C does not match its payload — bit-rot, a torn
    /// write, or an unfaithful tier read.
    ChecksumMismatch { panel: usize },
    /// A GEMM operand was packed for a panel width other than this build's
    /// `dsi_kernels::blocked::PANEL`: intact, but not this build's layout.
    PanelWidth { file: u64, build: usize },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::BadMagic => write!(f, "not a DSI checkpoint"),
            IoError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            IoError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            IoError::ChecksumMismatch { panel } => {
                write!(f, "corrupt checkpoint: panel {panel} checksum mismatch")
            }
            IoError::PanelWidth { file, build } => {
                write!(f, "checkpoint packed for panel width {file}, this build uses {build}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Float run / tensor / string primitives.
// ---------------------------------------------------------------------------

/// Append the little-endian encoding of `vals` (compiles to a copy on
/// little-endian targets).
fn put_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    let at = out.len();
    out.resize(at + 4 * vals.len(), 0);
    for (d, v) in out[at..].chunks_exact_mut(4).zip(vals) {
        d.copy_from_slice(&v.to_le_bytes());
    }
}

/// Take `n` little-endian floats off the front of `buf` (bulk, like
/// [`put_f32s`]) into `into`, whose old contents go and whose capacity is
/// reused; `what` names the run in the truncation error.
fn get_f32s(
    buf: &mut &[u8],
    n: usize,
    mut into: Vec<f32>,
    what: &'static str,
) -> Result<Vec<f32>, IoError> {
    let bytes = n.checked_mul(4).filter(|&b| b <= buf.len()).ok_or(IoError::Corrupt(what))?;
    let (run, rest) = buf.split_at(bytes);
    *buf = rest;
    into.clear();
    into.extend(run.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])));
    Ok(into)
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.put_u8(t.shape().len() as u8);
    for &d in t.shape() {
        out.put_u64_le(d as u64);
    }
    put_f32s(out, t.data());
}

fn get_tensor(buf: &mut &[u8]) -> Result<Tensor, IoError> {
    if buf.remaining() < 1 {
        return Err(IoError::Corrupt("truncated tensor header"));
    }
    let rank = buf.get_u8() as usize;
    if rank == 0 || rank > 4 {
        return Err(IoError::Corrupt("implausible tensor rank"));
    }
    if buf.remaining() < rank * 8 {
        return Err(IoError::Corrupt("truncated shape"));
    }
    let mut shape = Vec::with_capacity(rank);
    let mut n: usize = 1;
    for _ in 0..rank {
        let d = buf.get_u64_le() as usize;
        if d == 0 || d > 1 << 28 {
            return Err(IoError::Corrupt("implausible dimension"));
        }
        n = n.checked_mul(d).ok_or(IoError::Corrupt("shape overflow"))?;
        shape.push(d);
    }
    let data = get_f32s(buf, n, Vec::new(), "truncated tensor data")?;
    Ok(Tensor::from_vec(&shape, data))
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, IoError> {
    if buf.remaining() < 4 {
        return Err(IoError::Corrupt("truncated string"));
    }
    let len = buf.get_u32_le() as usize;
    if len > 1 << 16 || buf.remaining() < len {
        return Err(IoError::Corrupt("implausible string"));
    }
    let s = String::from_utf8(buf.chunk()[..len].to_vec())
        .map_err(|_| IoError::Corrupt("non-utf8 string"))?;
    buf.advance(len);
    Ok(s)
}

// ---------------------------------------------------------------------------
// Panel directory.
// ---------------------------------------------------------------------------

/// One panel's location in the weight file: `[offset, offset + len)` holds
/// the payload whose CRC32C is `crc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelEntry {
    /// Absolute byte offset of the payload from the start of the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// CRC32C of the payload.
    pub crc: u32,
}

/// The parsed header of a v3 weight file: the model config plus one
/// [`PanelEntry`] per panel. `panels[0]` is the resident group (wte, wpe,
/// final layer-norm); `panels[1 + l]` is layer `l`. Parsing the directory
/// touches only the header bytes, so an offload store over a memory-mapped
/// file learns every panel's location without faulting in the payloads.
#[derive(Debug, Clone)]
pub struct PanelDirectory {
    pub config: GptConfig,
    pub panels: Vec<PanelEntry>,
}

impl PanelDirectory {
    /// The layer count implied by the directory (`panels.len() - 1`).
    pub fn layers(&self) -> usize {
        self.panels.len() - 1
    }

    /// Directory entry for layer `l` (panel `1 + l`).
    pub fn layer_panel(&self, l: usize) -> &PanelEntry {
        &self.panels[1 + l]
    }

    /// Total payload bytes across all layer panels — the file-side size of
    /// everything an offload store streams (excludes the resident group).
    pub fn layer_payload_bytes(&self) -> usize {
        self.panels[1..].iter().map(|p| p.len).sum()
    }
}

/// Parse magic, version, config, and the panel directory of a v3 weight
/// file, validating that every directory entry lies inside `bytes` and
/// that the payloads exactly tile the remainder of the file. Does not
/// verify checksums (that is per-panel work — [`from_bytes`] does it for
/// whole-model loads, tier readers do it per read).
pub fn read_directory(mut buf: &[u8]) -> Result<PanelDirectory, IoError> {
    let total = buf.len();
    if buf.remaining() < 6 {
        return Err(IoError::BadMagic);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(IoError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(IoError::BadVersion(version));
    }
    let name = get_string(&mut buf)?;
    if buf.remaining() < 5 * 8 {
        return Err(IoError::Corrupt("truncated config"));
    }
    let hidden = buf.get_u64_le() as usize;
    let layers = buf.get_u64_le() as usize;
    let heads = buf.get_u64_le() as usize;
    let vocab = buf.get_u64_le() as usize;
    let max_seq = buf.get_u64_le() as usize;
    if layers == 0 || layers > 1024 || heads == 0 || !hidden.is_multiple_of(heads.max(1)) {
        return Err(IoError::Corrupt("implausible config"));
    }
    let config = GptConfig { name, hidden, layers, heads, vocab, max_seq };
    if buf.remaining() < 4 {
        return Err(IoError::Corrupt("truncated panel directory"));
    }
    let panel_count = buf.get_u32_le() as usize;
    if panel_count != layers + 1 {
        return Err(IoError::Corrupt("panel count does not match layer count"));
    }
    if buf.remaining() < panel_count * DIR_ENTRY {
        return Err(IoError::Corrupt("truncated panel directory"));
    }
    let mut panels = Vec::with_capacity(panel_count);
    let mut lens = Vec::with_capacity(panel_count);
    for _ in 0..panel_count {
        let len = buf.get_u64_le() as usize;
        let crc = buf.get_u32_le();
        if len == 0 || len > 1 << 40 {
            return Err(IoError::Corrupt("implausible panel length"));
        }
        lens.push((len, crc));
    }
    // Payloads are laid out back to back after the directory; offsets are
    // implied by the running sum. The final offset must land exactly on
    // the end of the file: short files are truncation, long files are
    // trailing garbage — both typed.
    let mut offset = total - buf.remaining();
    for (len, crc) in lens {
        if offset.checked_add(len).is_none_or(|end| end > total) {
            return Err(IoError::Corrupt("truncated panel payload"));
        }
        panels.push(PanelEntry { offset, len, crc });
        offset += len;
    }
    if offset != total {
        return Err(IoError::Corrupt("trailing bytes"));
    }
    Ok(PanelDirectory { config, panels })
}

/// Parse panel 0 (the resident group): `(wte, wpe, lnf_g, lnf_b)`, with
/// shape validation against `config`. `buf` is exactly the panel payload.
pub fn parse_resident_panel(
    mut buf: &[u8],
    c: &GptConfig,
) -> Result<(Tensor, Tensor, Tensor, Tensor), IoError> {
    let wte = get_tensor(&mut buf)?;
    let wpe = get_tensor(&mut buf)?;
    let lnf_g = get_tensor(&mut buf)?;
    let lnf_b = get_tensor(&mut buf)?;
    if wte.shape() != [c.vocab, c.hidden] || wpe.shape() != [c.max_seq, c.hidden] {
        return Err(IoError::Corrupt("embedding shape mismatch"));
    }
    if buf.has_remaining() {
        return Err(IoError::Corrupt("trailing bytes in resident panel"));
    }
    Ok((wte, wpe, lnf_g, lnf_b))
}

// ---------------------------------------------------------------------------
// Layer panels: execution layout on disk.
// ---------------------------------------------------------------------------

/// One of a layer panel's twelve pieces.
enum Piece<'a> {
    Vector(&'a [f32]),
    Operand(&'a PackedB),
}

impl Piece<'_> {
    /// The words this piece is written under: `[len]` for a vector,
    /// `[k, n, PANEL]` for an operand (unused words zero).
    fn header(&self) -> [u64; 3] {
        match self {
            Piece::Vector(v) => [v.len() as u64, 0, 0],
            Piece::Operand(b) => [b.k() as u64, b.n() as u64, PANEL as u64],
        }
    }

    /// How many of the header's words are in the file.
    fn words(&self) -> usize {
        match self {
            Piece::Vector(_) => 1,
            Piece::Operand(_) => 3,
        }
    }

    fn floats(&self) -> &[f32] {
        match self {
            Piece::Vector(v) => v,
            Piece::Operand(b) => b.as_packed(),
        }
    }
}

/// A layer's pieces in file order ([`PackedLayer`] field order — the order
/// [`CopiedPanel::copy_from`] reads them back in).
fn pieces(pl: &PackedLayer<PackedB>) -> [Piece<'_>; 12] {
    use Piece::{Operand, Vector};
    [
        Vector(&pl.ln1_g),
        Vector(&pl.ln1_b),
        Operand(&pl.w_qkv),
        Vector(&pl.b_qkv),
        Operand(&pl.w_o),
        Vector(&pl.b_o),
        Vector(&pl.ln2_g),
        Vector(&pl.ln2_b),
        Operand(&pl.w_ff1),
        Vector(&pl.b_ff1),
        Operand(&pl.w_ff2),
        Vector(&pl.b_ff2),
    ]
}

/// Walks a layer panel's bytes piece by piece: header words are set aside
/// as found, float runs are decoded into buffers the caller will own — the
/// `into` each call is handed, refilled (a recycled layer's) or empty.
struct PanelReader<'a> {
    src: &'a [u8],
    /// Pieces read so far — the index into `headers`.
    piece: usize,
    headers: [[u64; 3]; 12],
}

impl PanelReader<'_> {
    /// The next piece: `words` header words, then `floats` floats.
    fn run(&mut self, words: usize, floats: usize, into: Vec<f32>) -> Result<Vec<f32>, IoError> {
        if self.src.remaining() < 8 * words {
            return Err(IoError::Corrupt("truncated layer panel"));
        }
        for word in &mut self.headers[self.piece][..words] {
            *word = self.src.get_u64_le();
        }
        self.piece += 1;
        get_f32s(&mut self.src, floats, into, "truncated layer panel")
    }

    fn vector(&mut self, len: usize, into: Vec<f32>) -> Result<Vec<f32>, IoError> {
        self.run(1, len, into)
    }

    fn operand(&mut self, k: usize, n: usize, into: PackedB) -> Result<PackedB, IoError> {
        let len = PackedB::packed_len(k, n).ok_or(IoError::Corrupt("operand shape overflow"))?;
        let data = self.run(3, len, into.into_packed())?;
        Ok(PackedB::from_packed(k, n, data).expect("run decoded at packed_len(k, n)"))
    }
}

/// One layer panel copied out of a weight file into memory the caller
/// owns, **not yet trusted**: the only way to the layer inside is
/// [`CopiedPanel::verify`], which checksums the copy. Copy first, verify
/// the copy, hand out the copy — a tier reader over a mapping that can
/// change underneath it must never vouch for bytes other than the ones the
/// kernels will read.
pub struct CopiedPanel {
    layer: PackedLayer<PackedB>,
    /// Each piece's header words as found in the file (unused words zero).
    headers: [[u64; 3]; 12],
}

impl CopiedPanel {
    /// Copy a layer panel's payload (`src` is exactly the panel) into the
    /// owned buffers of a [`PackedLayer`]: twelve bulk little-endian
    /// decodes at the offsets `config` implies, no transform. Fails only
    /// when `src` is not the length a layer of this config occupies.
    ///
    /// `recycle` is a retired layer whose buffers the copy refills instead
    /// of allocating: a tier that evicts a panel per fetch would otherwise
    /// unmap and re-fault a panel's worth of pages every time, which costs
    /// more than the copy and the checksum together.
    pub fn copy_from(
        src: &[u8],
        c: &GptConfig,
        recycle: Option<PackedLayer<PackedB>>,
    ) -> Result<CopiedPanel, IoError> {
        let h = c.hidden;
        let (h3, h4) = (h.saturating_mul(3), h.saturating_mul(4));
        let old = recycle.unwrap_or_default();
        let mut r = PanelReader { src, piece: 0, headers: [[0; 3]; 12] };
        let layer = PackedLayer {
            ln1_g: r.vector(h, old.ln1_g)?,
            ln1_b: r.vector(h, old.ln1_b)?,
            w_qkv: r.operand(h, h3, old.w_qkv)?,
            b_qkv: r.vector(h3, old.b_qkv)?,
            w_o: r.operand(h, h, old.w_o)?,
            b_o: r.vector(h, old.b_o)?,
            ln2_g: r.vector(h, old.ln2_g)?,
            ln2_b: r.vector(h, old.ln2_b)?,
            w_ff1: r.operand(h, h4, old.w_ff1)?,
            b_ff1: r.vector(h4, old.b_ff1)?,
            w_ff2: r.operand(h4, h, old.w_ff2)?,
            b_ff2: r.vector(h, old.b_ff2)?,
        };
        if r.src.has_remaining() {
            return Err(IoError::Corrupt("trailing bytes in layer panel"));
        }
        Ok(CopiedPanel { layer, headers: r.headers })
    }

    /// Checksum the copy — header words and floats, in file order — against
    /// the directory's `crc` for panel index `panel`, then check that every
    /// header says what the config (and this build's `PANEL`) implies. In
    /// that order: a transient bad read is a `ChecksumMismatch` a tier can
    /// retry, an intact file in another layout is not.
    pub fn verify(self, panel: usize, crc: u32) -> Result<PackedLayer<PackedB>, IoError> {
        let pieces = pieces(&self.layer);
        let mut sum = Checksum::new();
        for (p, found) in pieces.iter().zip(&self.headers) {
            for word in &found[..p.words()] {
                sum.update(&word.to_le_bytes());
            }
            sum.update_f32s(p.floats());
        }
        if sum.finish() != crc {
            return Err(IoError::ChecksumMismatch { panel });
        }
        for (p, found) in pieces.iter().zip(&self.headers) {
            let want = p.header();
            // Only operands have a third word (a vector's stays zero).
            if found[2] != want[2] {
                return Err(IoError::PanelWidth { file: found[2], build: PANEL });
            }
            if *found != want {
                return Err(IoError::Corrupt("layer panel header disagrees with the config"));
            }
        }
        Ok(self.layer)
    }
}

// ---------------------------------------------------------------------------
// Whole-model serialize / deserialize.
// ---------------------------------------------------------------------------

/// Streams one panel out piece by piece through a reused buffer, chaining
/// the checksum over exactly the bytes written.
struct PanelWriter<'w, W> {
    w: &'w mut W,
    buf: &'w mut Vec<u8>,
    sum: Checksum,
    len: u64,
}

impl<'w, W: Write> PanelWriter<'w, W> {
    fn new(w: &'w mut W, buf: &'w mut Vec<u8>) -> Self {
        PanelWriter { w, buf, sum: Checksum::new(), len: 0 }
    }

    /// Emit whatever `fill` encodes into the (cleared) buffer.
    fn emit(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        self.buf.clear();
        fill(self.buf);
        self.sum.update(self.buf);
        self.len += self.buf.len() as u64;
        self.w.write_all(self.buf)
    }

    /// The panel's directory entry: `(length, checksum)`.
    fn finish(self) -> (u64, u32) {
        (self.len, self.sum.finish())
    }
}

/// The one writer behind [`save`] and [`to_bytes`]: header, a placeholder
/// directory, then one panel at a time (never more than one packed layer
/// and one encoded piece in memory beyond the model itself), and last the
/// directory back-patched with the lengths and checksums that produced.
fn write_model<W: Write + Seek>(model: &GptModel, w: &mut W) -> std::io::Result<()> {
    let c = &model.config;
    let panel_count = model.layers.len() + 1;
    let mut buf = Vec::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    put_string(&mut buf, &c.name);
    for v in [c.hidden, c.layers, c.heads, c.vocab, c.max_seq] {
        buf.put_u64_le(v as u64);
    }
    buf.put_u32_le(panel_count as u32);
    w.write_all(&buf)?;
    let directory_at = w.stream_position()?;
    w.write_all(&vec![0u8; panel_count * DIR_ENTRY])?;

    let mut directory = Vec::with_capacity(panel_count);
    let mut panel = PanelWriter::new(w, &mut buf);
    for t in [&model.wte, &model.wpe, &model.lnf_g, &model.lnf_b] {
        panel.emit(|out| put_tensor(out, t))?;
    }
    directory.push(panel.finish());
    for lw in &model.layers {
        let packed = PackedLayer::pack(lw);
        let mut panel = PanelWriter::new(w, &mut buf);
        for piece in pieces(&packed) {
            panel.emit(|out| {
                for &word in &piece.header()[..piece.words()] {
                    out.put_u64_le(word);
                }
                put_f32s(out, piece.floats());
            })?;
        }
        directory.push(panel.finish());
    }

    w.seek(SeekFrom::Start(directory_at))?;
    buf.clear();
    for (len, crc) in directory {
        buf.put_u64_le(len);
        buf.put_u32_le(crc);
    }
    w.write_all(&buf)
}

/// Serialize a model to bytes (format v3: header, panel directory, panels).
pub fn to_bytes(model: &GptModel) -> Vec<u8> {
    let mut w = Cursor::new(Vec::new());
    write_model(model, &mut w).expect("writing to memory cannot fail");
    w.into_inner()
}

/// Deserialize a model from bytes, verifying every panel checksum.
pub fn from_bytes(buf: &[u8]) -> Result<GptModel, IoError> {
    let dir = read_directory(buf)?;
    let c = dir.config.clone();
    let payload = |p: &PanelEntry| &buf[p.offset..p.offset + p.len];
    let p0 = &dir.panels[0];
    if checksum(payload(p0)) != p0.crc {
        return Err(IoError::ChecksumMismatch { panel: 0 });
    }
    let (wte, wpe, lnf_g, lnf_b) = parse_resident_panel(payload(p0), &c)?;
    let mut lws = Vec::with_capacity(c.layers);
    for l in 0..c.layers {
        let p = dir.layer_panel(l);
        lws.push(CopiedPanel::copy_from(payload(p), &c, None)?.verify(1 + l, p.crc)?.unpack());
    }
    Ok(GptModel { config: c, wte, wpe, layers: lws, lnf_g, lnf_b })
}

/// Save to a file, streamed one panel at a time (never more than one packed
/// layer in memory beyond the model itself).
pub fn save(model: &GptModel, path: impl AsRef<Path>) -> Result<(), IoError> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    write_model(model, &mut w)?;
    // Dropping a `BufWriter` swallows the last write's error.
    w.flush()?;
    Ok(())
}

/// Load from a file.
pub fn load(path: impl AsRef<Path>) -> Result<GptModel, IoError> {
    from_bytes(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::LayerWeights;
    use crate::zoo;

    fn model() -> GptModel {
        GptModel::random(zoo::tiny(2), 77)
    }

    /// hidden 48 → operand widths 144, 48, 192: the first two end in a
    /// partial panel (`tiny`'s 64 is a multiple of `PANEL` everywhere).
    fn ragged_model() -> GptModel {
        let config = GptConfig {
            name: "ragged-48".into(),
            hidden: 48,
            layers: 2,
            heads: 4,
            vocab: 50,
            max_seq: 16,
        };
        GptModel::random(config, 78)
    }

    fn tensors(lw: &LayerWeights) -> [&Tensor; 12] {
        [
            &lw.ln1_g, &lw.ln1_b, &lw.w_qkv, &lw.b_qkv, &lw.w_o, &lw.b_o, &lw.ln2_g, &lw.ln2_b,
            &lw.w_ff1, &lw.b_ff1, &lw.w_ff2, &lw.b_ff2,
        ]
    }

    fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: data");
    }

    /// Overwrite header word `word` of layer `l`'s panel and re-seal the
    /// panel's directory checksum: an *intact* file that says something
    /// else, as another build or another config would have written it.
    fn rewrite_header_word(bytes: &mut [u8], l: usize, word: usize, value: u64) {
        let dir = read_directory(bytes).expect("directory");
        let p = *dir.layer_panel(l);
        // Walk to the word: pieces are (words, floats) runs in file order.
        let (mut at, mut seen) = (p.offset, 0);
        let packed = PackedLayer::pack(&LayerWeights::random(dir.config.hidden, 0));
        'walk: for piece in pieces(&packed) {
            for _ in 0..piece.words() {
                if seen == word {
                    break 'walk;
                }
                at += 8;
                seen += 1;
            }
            at += 4 * piece.floats().len();
        }
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let crc = checksum(&bytes[p.offset..p.offset + p.len]);
        let entry = dir.panels[0].offset - (dir.panels.len() - (1 + l)) * DIR_ENTRY;
        bytes[entry + 8..entry + 12].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn roundtrip_is_bitwise_on_every_tensor() {
        for m in [model(), ragged_model()] {
            let bytes = to_bytes(&m);
            let back = from_bytes(&bytes).expect("roundtrip");
            let name = &m.config.name;
            assert_eq!(back.config.name, m.config.name);
            assert_eq!(
                (back.config.hidden, back.config.layers, back.config.heads),
                (m.config.hidden, m.config.layers, m.config.heads)
            );
            assert_eq!((back.config.vocab, back.config.max_seq), (m.config.vocab, m.config.max_seq));
            for (a, b, what) in [
                (&back.wte, &m.wte, "wte"),
                (&back.wpe, &m.wpe, "wpe"),
                (&back.lnf_g, &m.lnf_g, "lnf_g"),
                (&back.lnf_b, &m.lnf_b, "lnf_b"),
            ] {
                assert_bitwise(a, b, &format!("{name} {what}"));
            }
            assert_eq!(back.layers.len(), m.layers.len());
            for (l, (a, b)) in back.layers.iter().zip(&m.layers).enumerate() {
                for (i, (ta, tb)) in tensors(a).into_iter().zip(tensors(b)).enumerate() {
                    assert_bitwise(ta, tb, &format!("{name} layer {l} tensor {i}"));
                }
            }
            // Behavioural identity.
            assert_eq!(back.generate(&[1, 2, 3], 5), m.generate(&[1, 2, 3], 5));
        }
    }

    #[test]
    fn file_roundtrip() {
        let m = model();
        let path = std::env::temp_dir().join("dsi_ckpt_test.bin");
        save(&m, &path).expect("save");
        // One writer: the file is byte for byte what `to_bytes` returns.
        assert_eq!(fs::read(&path).expect("read back"), to_bytes(&m));
        let back = load(&path).expect("load");
        assert_eq!(back.generate(&[4], 3), m.generate(&[4], 3));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&model());
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(IoError::BadMagic)));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = to_bytes(&model());
        bytes[4] = 99;
        assert!(matches!(from_bytes(&bytes), Err(IoError::BadVersion(_))));
    }

    #[test]
    fn v2_file_is_a_bad_version_not_a_second_reader() {
        // v2 shared the magic and the header prefix; only the version
        // differs up to that point, and nothing past it is looked at.
        let mut bytes = to_bytes(&model());
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(read_directory(&bytes), Err(IoError::BadVersion(2))));
        assert!(matches!(from_bytes(&bytes), Err(IoError::BadVersion(2))));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = to_bytes(&model());
        // Chop at a sample of offsets: every prefix must fail cleanly, never
        // panic.
        for cut in [3usize, 6, 10, 40, bytes.len() / 2, bytes.len() - 1] {
            let r = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must be rejected");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = to_bytes(&model());
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(from_bytes(&bytes), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn flipped_payload_bit_is_a_checksum_mismatch() {
        // The v1 gap the panel checksums closed: bit-rot inside tensor data
        // parsed fine and loaded a silently wrong model. Every panel is
        // checksummed, so a single flipped bit anywhere in any payload is a
        // typed rejection naming the panel.
        let m = model();
        let clean = to_bytes(&m);
        let dir = read_directory(&clean).expect("directory");
        for (i, p) in dir.panels.iter().enumerate() {
            // Mid-payload (float data), the first byte (a header word) and
            // the last (the final run's tail).
            for at in [p.len / 2, 0, p.len - 1] {
                let mut bytes = clean.clone();
                bytes[p.offset + at] ^= 0x10;
                match from_bytes(&bytes) {
                    Err(IoError::ChecksumMismatch { panel }) => assert_eq!(panel, i),
                    other => panic!("panel {i} byte {at}: expected checksum mismatch, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn corrupted_directory_entry_rejected_typed() {
        let m = model();
        let bytes = to_bytes(&m);
        let dir = read_directory(&bytes).expect("directory");
        // Inflate panel 0's recorded length: the payloads no longer tile
        // the file, which must read as truncation, not a panic.
        let len_field = dir.panels[0].offset - dir.panels.len() * DIR_ENTRY;
        let mut bad = bytes.clone();
        bad[len_field] = 0xff;
        assert!(from_bytes(&bad).is_err());
    }

    #[test]
    fn layer_panels_copy_out_equal_to_pack_bitwise() {
        // Why token identity survives the format by construction: what a
        // tier reader copies out of the file *is* what `PackedLayer::pack`
        // builds in memory, field by field.
        for m in [model(), ragged_model()] {
            let bytes = to_bytes(&m);
            let dir = read_directory(&bytes).expect("directory");
            assert_eq!(dir.layers(), m.config.layers);
            assert_eq!(dir.panels.len(), m.config.layers + 1);
            let mut total = 0;
            let mut recycled = None;
            for l in 0..dir.layers() {
                let p = dir.layer_panel(l);
                let payload = &bytes[p.offset..p.offset + p.len];
                assert_eq!(checksum(payload), p.crc, "directory checksum covers the payload");
                // Each copy refills the previous layer's buffers, as a tier
                // that evicts per fetch does.
                let got = CopiedPanel::copy_from(payload, &dir.config, recycled.take())
                    .and_then(|c| c.verify(1 + l, p.crc))
                    .expect("layer panel");
                let want = PackedLayer::pack(&m.layers[l]);
                for (i, (g, w)) in pieces(&got).iter().zip(&pieces(&want)).enumerate() {
                    assert_eq!(g.header(), w.header(), "layer {l} piece {i} shape");
                    let bits = |p: &Piece| p.floats().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(g), bits(w), "layer {l} piece {i} floats");
                }
                total += p.len;
                recycled = Some(got);
            }
            assert_eq!(dir.layer_payload_bytes(), total);
        }
    }

    #[test]
    fn panel_packed_for_another_width_is_typed() {
        // hidden 64: every operand width is a multiple of 16 and of 32, so
        // a width-16 build writes panels of the same length — only the
        // recorded width tells the strides apart.
        let mut bytes = to_bytes(&model());
        rewrite_header_word(&mut bytes, 1, 4, 16); // w_qkv: words 2..5 are k, n, PANEL
        match from_bytes(&bytes) {
            Err(IoError::PanelWidth { file: 16, build: PANEL }) => {}
            other => panic!("expected PanelWidth, got {other:?}"),
        }
    }

    #[test]
    fn operand_header_disagreeing_with_config_is_typed() {
        // Intact (checksum re-sealed) but claiming another `n` for w_qkv,
        // then another length for ln1_g.
        for word in [3, 0] {
            let mut bytes = to_bytes(&model());
            rewrite_header_word(&mut bytes, 0, word, 7);
            assert!(
                matches!(from_bytes(&bytes), Err(IoError::Corrupt(_))),
                "header word {word} must be checked against the config"
            );
        }
    }

    #[test]
    fn truncated_packed_operand_is_typed() {
        let m = ragged_model();
        let bytes = to_bytes(&m);
        let dir = read_directory(&bytes).expect("directory");
        let p = dir.layer_panel(0);
        let payload = &bytes[p.offset..p.offset + p.len];
        // Cut inside w_qkv, at the end of ln1_b, inside a header, one short,
        // and one long: never a panic, never a layer.
        for len in [4 * 48 * 4, 2 * (8 + 48 * 4), 3, p.len - 1] {
            assert!(
                matches!(
                    CopiedPanel::copy_from(&payload[..len], &dir.config, None),
                    Err(IoError::Corrupt(_))
                ),
                "{len}-byte panel must be rejected"
            );
        }
        let mut long = payload.to_vec();
        long.push(0);
        assert!(matches!(CopiedPanel::copy_from(&long, &dir.config, None), Err(IoError::Corrupt(_))));
        // The same panel read under a config it was not written for.
        let other = GptConfig { hidden: 64, ..dir.config.clone() };
        assert!(matches!(CopiedPanel::copy_from(payload, &other, None), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn nonexistent_file_is_io_error() {
        assert!(matches!(
            load("/definitely/not/a/path.bin"),
            Err(IoError::Io(_))
        ));
    }
}

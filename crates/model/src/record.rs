//! The record of a pass: every slice the step hands a kernel, logged by the
//! calls that hand it out — the `Buf` accessors, through
//! [`RowParallel::touch`], and the [`KvSink`]. `paged::Engine::record_pass`
//! wraps each member's seam and sink in a `Recording` and a `RecordingKv`;
//! every other pass runs `Solo` or `team::Member` bare, whose `touch` is a
//! no-op. The recorder is a type parameter of the pass (`paged`'s `Runs`),
//! so only `record_pass` compiles or allocates it. `dsi-verify` checks
//! the arena protocol and the fused regions on the record as it is: each
//! [`Touch`] a row × column window of a [`Buffer`].

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use crate::fast::{Access, KvSink, Row, RowParallel, Share};

/// What an access names: a scratch buffer by its `fast::scratch_layout`
/// name (`normed` is each member's own), or the K or V rows of sequence
/// `seq`'s cache at layer `layer`, one row per position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffer {
    Scratch(&'static str),
    Kv { layer: usize, seq: usize, value: bool },
}

/// One operand of a launch: columns `cols` of rows `rows`, `stride` floats
/// apart, of `buf`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Touch {
    pub buf: Buffer,
    pub rows: Range<usize>,
    pub stride: usize,
    pub cols: Range<usize>,
    pub access: Access,
}

/// The call a launch's operands were handed to: a fused region (the
/// embedding, a GEMM with its layer norm, the logits head), a
/// [`KvSink::write`] or a [`KvSink::attend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Region,
    KvWrite,
    Attend,
}

/// One kernel call's operands as one member made it, stamped with the
/// joins the member had crossed and the layer running (`None` before the
/// first). A region takes its reads before its writes (`fast::step_in`),
/// so a read after a write starts the next launch; a K/V call's launch is
/// the slices taken for it plus its K/V rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Launch {
    pub member: usize,
    pub epoch: u64,
    pub layer: Option<usize>,
    pub kernel: Kernel,
    pub touches: Vec<Touch>,
}

impl Launch {
    /// Whether the launch reads (or writes) scratch buffer `buf`.
    pub fn uses(&self, buf: &str, access: Access) -> bool {
        self.touches.iter().any(|t| matches!(t.buf, Buffer::Scratch(b) if b == buf) && t.access == access)
    }
}

/// The record of one pass: its rows, the members it ran on, each member's
/// joins as its seam counted them, and every member's launches, member by
/// member, each in its own order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    pub rows: Vec<Row>,
    pub members: usize,
    pub joins: Vec<u64>,
    pub launches: Vec<Launch>,
}

impl PassRecord {
    /// The spans between joins: one more than the most joins any member
    /// made.
    pub fn phases(&self) -> u64 {
        self.joins.iter().max().map_or(0, |j| j + 1)
    }
}

/// One member's log while its pass runs: the launch it is taking operands
/// for, and those it made.
#[derive(Debug, Default)]
struct Log {
    member: usize,
    epoch: u64,
    layer: Option<usize>,
    pending: Vec<Touch>,
    launches: Vec<Launch>,
}

impl Log {
    fn close(&mut self, kernel: Kernel) {
        if !self.pending.is_empty() {
            let touches = std::mem::take(&mut self.pending);
            self.launches.push(Launch { member: self.member, epoch: self.epoch, layer: self.layer, kernel, touches });
        }
    }
}

/// The members' logs of one recorded pass.
#[derive(Debug, Default)]
pub(crate) struct Recorder(Mutex<Vec<Log>>);

impl Recorder {
    /// Run `body`, one member's part of the pass, with `seam` and `kv`
    /// (K/V rows `h` floats wide) wrapped to log into this recorder. A
    /// member that unwinds out of `body` logs nothing.
    pub(crate) fn member<R: RowParallel, K: KvSink + ?Sized, T>(
        &self,
        seam: &mut R,
        kv: &mut K,
        h: usize,
        body: impl FnOnce(&mut Recording<'_, R>, &mut RecordingKv<'_, K>) -> T,
    ) -> T {
        let log = RefCell::new(Log { member: seam.share().member, ..Log::default() });
        let out = body(&mut Recording { inner: seam, log: &log }, &mut RecordingKv { inner: kv, log: &log, h });
        let mut log = log.into_inner();
        log.close(Kernel::Region);
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(log);
        out
    }

    /// The record of the pass over `rows` on `members` members.
    pub(crate) fn finish(self, rows: &[Row], members: usize) -> PassRecord {
        let mut logs = self.0.into_inner().unwrap_or_else(PoisonError::into_inner);
        logs.sort_by_key(|l| l.member);
        let joins = logs.iter().map(|l| l.epoch).collect();
        PassRecord { rows: rows.to_vec(), members, joins, launches: logs.into_iter().flat_map(|l| l.launches).collect() }
    }
}

/// A seam that logs every scratch access and counts its joins, handing
/// each call on to the seam it wraps.
pub(crate) struct Recording<'a, R> {
    inner: &'a mut R,
    log: &'a RefCell<Log>,
}

impl<R: RowParallel> RowParallel for Recording<'_, R> {
    fn at_layer(&mut self, layer: usize, rows: &[Row]) {
        self.log.borrow_mut().layer = Some(layer);
        self.inner.at_layer(layer, rows);
    }

    fn share(&self) -> Share {
        self.inner.share()
    }

    fn join(&mut self) {
        self.log.borrow_mut().close(Kernel::Region);
        self.inner.join();
        self.log.borrow_mut().epoch += 1;
    }

    fn touch(&mut self, buf: &'static str, rows: Range<usize>, stride: usize, cols: Range<usize>, access: Access) {
        let mut log = self.log.borrow_mut();
        if access == Access::Read && log.pending.last().is_some_and(|p| p.access == Access::Write) {
            log.close(Kernel::Region);
        }
        log.pending.push(Touch { buf: Buffer::Scratch(buf), rows: rows.clone(), stride, cols: cols.clone(), access });
        self.inner.touch(buf, rows, stride, cols, access);
    }
}

/// A [`KvSink`] that logs each call as a launch, then hands it on to the
/// sink it wraps.
pub(crate) struct RecordingKv<'a, K: ?Sized> {
    inner: &'a mut K,
    log: &'a RefCell<Log>,
    h: usize,
}

impl<K: ?Sized> RecordingKv<'_, K> {
    /// Close the launch with the K and V `rows` of `row`'s sequence.
    fn launch(&self, kernel: Kernel, layer: usize, row: Row, rows: Range<usize>, cols: Range<usize>, access: Access) {
        let mut log = self.log.borrow_mut();
        for value in [false, true] {
            let buf = Buffer::Kv { layer, seq: row.seq, value };
            log.pending.push(Touch { buf, rows: rows.clone(), stride: self.h, cols: cols.clone(), access });
        }
        log.close(kernel);
    }
}

impl<K: KvSink + ?Sized> KvSink for RecordingKv<'_, K> {
    fn write(&mut self, layer: usize, row: Row, cols: Range<usize>, k: &[f32], v: &[f32]) {
        self.launch(Kernel::KvWrite, layer, row, row.pos..row.pos + 1, cols.clone(), Access::Write);
        self.inner.write(layer, row, cols, k, v);
    }

    fn attend(&self, layer: usize, row: Row, heads: Range<usize>, head_dim: usize, q: &[f32], out: &mut [f32]) {
        let cols = heads.start * head_dim..heads.end * head_dim;
        self.launch(Kernel::Attend, layer, row, 0..row.pos + 1, cols, Access::Read);
        self.inner.attend(layer, row, heads, head_dim, q, out);
    }
}
